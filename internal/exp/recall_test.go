package exp

import "testing"

// DKNN's answer quality under loss has a floor. The goldens record the
// loss tables byte for byte, but a change that moves the wire regenerates
// them, so a golden alone would let recall fall silently; these floors,
// just under the values the golden profile gives (0.9575 at 5 % loss and
// 0.8875 at 10 % bursty loss), do not move with it. A change that lowers
// one must lower the floor here, in the same diff.
func TestLossRecallFloors(t *testing.T) {
	p := goldenProfile()
	floors := []struct {
		e     *Experiment
		row   string
		floor float64
	}{
		{p.Fig17LossRobustness(), "5%", 0.95},
		{p.Fig18BurstLoss(), "10%", 0.88},
	}
	for _, f := range floors {
		tbl, err := f.e.Run()
		if err != nil {
			t.Fatalf("%s: %v", f.e.ID, err)
		}
		recall, ok := tbl.Column("DKNN mean recall")
		if !ok {
			t.Fatalf("%s: no DKNN mean recall column in %v", f.e.ID, tbl.Columns)
		}
		found := false
		for i, r := range tbl.Rows {
			if r.Label != f.row {
				continue
			}
			found = true
			if recall[i] < f.floor {
				t.Errorf("%s at %s: DKNN mean recall %.4f, below the floor %.2f", f.e.ID, f.row, recall[i], f.floor)
			}
		}
		if !found {
			t.Fatalf("%s: no row %q", f.e.ID, f.row)
		}
	}
}
