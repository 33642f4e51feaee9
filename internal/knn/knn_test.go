package knn

import (
	"math/rand"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/model"
)

func randomStates(rng *rand.Rand, n int) []model.ObjectState {
	states := make([]model.ObjectState, n)
	for i := range states {
		states[i] = model.ObjectState{
			ID:  model.ObjectID(i + 1),
			Pos: geo.Pt(rng.Float64()*1000, rng.Float64()*1000),
		}
	}
	return states
}

func TestBruteForceSimple(t *testing.T) {
	states := []model.ObjectState{
		{ID: 1, Pos: geo.Pt(10, 0)},
		{ID: 2, Pos: geo.Pt(5, 0)},
		{ID: 3, Pos: geo.Pt(20, 0)},
	}
	got := BruteForce(states, geo.Pt(0, 0), 2, nil)
	if len(got) != 2 || got[0].ID != 2 || got[1].ID != 1 {
		t.Fatalf("BruteForce = %v", got)
	}
	if got[0].Dist != 5 || got[1].Dist != 10 {
		t.Fatalf("distances = %v", got)
	}
}

func TestBruteForceEdges(t *testing.T) {
	if got := BruteForce(nil, geo.Pt(0, 0), 3, nil); got != nil {
		t.Fatalf("empty states: %v", got)
	}
	states := randomStates(rand.New(rand.NewSource(1)), 5)
	if got := BruteForce(states, geo.Pt(0, 0), 0, nil); got != nil {
		t.Fatalf("k=0: %v", got)
	}
	if got := BruteForce(states, geo.Pt(0, 0), 100, nil); len(got) != 5 {
		t.Fatalf("k>n returned %d", len(got))
	}
	skip := map[model.ObjectID]bool{states[0].ID: true}
	got := BruteForce(states, states[0].Pos, 5, skip)
	for _, n := range got {
		if n.ID == states[0].ID {
			t.Fatal("skip set ignored")
		}
	}
}

// Cross-validate the grid kNN against brute force on identical data: the
// two independent implementations must agree exactly.
func TestGridAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	states := randomStates(rng, 3000)
	g := grid.New(geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)), 20, 20)
	for _, s := range states {
		if err := g.Insert(s.ID, s.Pos); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 300; trial++ {
		q := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		k := 1 + rng.Intn(40)
		want := BruteForce(states, q, k, nil)
		got := g.KNN(q, k, nil, nil)
		if len(got) != len(want) {
			t.Fatalf("len mismatch: %d vs %d", len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("trial %d (k=%d): pos %d grid=%v brute=%v", trial, k, i, got[i], want[i])
			}
		}
	}
}

func TestCandidateSetBasics(t *testing.T) {
	c := NewCandidateSet()
	if c.Len() != 0 {
		t.Fatal("new set not empty")
	}
	c.Set(1, geo.Pt(1, 1))
	c.Set(2, geo.Pt(2, 2))
	c.Set(1, geo.Pt(3, 3)) // update
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	if ns := c.KNN(geo.Pt(3, 3), 1); len(ns) != 1 || ns[0].ID != 1 || ns[0].Dist != 0 {
		t.Fatalf("update not recorded: nearest to (3,3) is %v", ns)
	}
	c.Remove(1)
	c.Remove(99) // no-op
	if ns := c.KNN(geo.Pt(3, 3), 2); len(ns) != 1 || ns[0].ID != 2 {
		t.Fatalf("Remove failed: %v", ns)
	}
	c.Clear()
	if c.Len() != 0 {
		t.Fatal("Clear failed")
	}
}

// Clear gives the storage of the round it ends back — a monitor's start-up
// probe collects hundreds of replies, its steady state none — and the
// emptied set is as usable as a new one.
func TestCandidateSetClearReleases(t *testing.T) {
	c := NewCandidateSet()
	for i := model.ObjectID(1); i <= 500; i++ {
		c.Set(i, geo.Pt(float64(i), 0))
	}
	c.Clear()
	if c.pos != nil {
		t.Fatal("Clear kept the map and its buckets")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after Clear", c.Len())
	}
	c.Remove(1)
	c.Visit(func(id model.ObjectID, _ geo.Point) bool {
		t.Fatalf("Visit after Clear reached %d", id)
		return false
	})
	if ns := c.KNN(geo.Pt(0, 0), 3); ns != nil {
		t.Fatalf("KNN after Clear = %v", ns)
	}
	c.Set(7, geo.Pt(7, 0))
	if ns := c.KNN(geo.Pt(0, 0), 3); c.Len() != 1 || len(ns) != 1 || ns[0].ID != 7 {
		t.Fatalf("Set after Clear: Len %d, KNN %v", c.Len(), ns)
	}
}

func TestCandidateSetKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	states := randomStates(rng, 500)
	c := NewCandidateSet()
	for _, s := range states {
		c.Set(s.ID, s.Pos)
	}
	for trial := 0; trial < 100; trial++ {
		q := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		k := 1 + rng.Intn(20)
		want := BruteForce(states, q, k, nil)
		got := c.KNN(q, k)
		if len(got) != len(want) {
			t.Fatalf("len %d vs %d", len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("trial %d pos %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
	if got := c.KNN(geo.Pt(0, 0), 0); got != nil {
		t.Fatal("k=0 should be nil")
	}
	empty := NewCandidateSet()
	if got := empty.KNN(geo.Pt(0, 0), 3); got != nil {
		t.Fatal("empty set should be nil")
	}
}

func TestVisitEarlyStop(t *testing.T) {
	c := NewCandidateSet()
	for i := model.ObjectID(1); i <= 10; i++ {
		c.Set(i, geo.Pt(float64(i), 0))
	}
	n := 0
	c.Visit(func(model.ObjectID, geo.Point) bool {
		n++
		return n < 4
	})
	if n != 4 {
		t.Fatalf("Visit early stop saw %d", n)
	}
}

func BenchmarkBruteForce20k(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	states := randomStates(rng, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BruteForce(states, geo.Pt(rng.Float64()*1000, rng.Float64()*1000), 10, nil)
	}
}
