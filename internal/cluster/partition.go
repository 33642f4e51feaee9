package cluster

import (
	"fmt"
	"slices"
	"sync/atomic"

	"dmknn/internal/geo"
	"dmknn/internal/grid"
)

// Partition is the spatial decomposition: contiguous strips of whole
// grid-cell columns, one strip per node, covering the world. Cell
// granularity makes restricted broadcasts exact — every cell is owned by
// exactly one node, so clipped rebroadcasts neither overlap nor leave
// gaps.
//
// A partition value is immutable; the balancer evolves the map through
// MoveColumn, which returns a new value with the version incremented.
// Strips stay contiguous and in ascending node order because MoveColumn
// only shifts boundary columns between adjacent strips.
type Partition struct {
	geom     grid.Geometry
	regions  []geo.Rect
	colOwner []int
	version  uint64
}

// NewPartition divides the geometry's columns over nodes as evenly as
// possible (leading strips take the remainder).
func NewPartition(geom grid.Geometry, nodes int) (Partition, error) {
	cols, _ := geom.Dims()
	if nodes < 1 {
		return Partition{}, fmt.Errorf("cluster: need at least one node, got %d", nodes)
	}
	if nodes > cols {
		return Partition{}, fmt.Errorf("cluster: %d nodes exceed the grid's %d columns", nodes, cols)
	}
	p := Partition{
		geom:     geom,
		regions:  make([]geo.Rect, nodes),
		colOwner: make([]int, cols),
	}
	b := geom.Bounds()
	cellW := b.Width() / float64(cols)
	base, rem := cols/nodes, cols%nodes
	col := 0
	for i := 0; i < nodes; i++ {
		w := base
		if i < rem {
			w++
		}
		for j := 0; j < w; j++ {
			p.colOwner[col+j] = i
		}
		x0 := b.Min.X + float64(col)*cellW
		x1 := b.Min.X + float64(col+w)*cellW
		if i == nodes-1 {
			x1 = b.Max.X // absorb float rounding at the world edge
		}
		p.regions[i] = geo.NewRect(geo.Pt(x0, b.Min.Y), geo.Pt(x1, b.Max.Y))
		col += w
	}
	return p, nil
}

// Nodes returns the node count.
func (p Partition) Nodes() int { return len(p.regions) }

// Version returns the map version: 0 for a freshly divided partition,
// incremented by every MoveColumn. Versions order maps totally, so
// replicated holders converge on the highest one they have seen.
func (p Partition) Version() uint64 { return p.version }

// Owners returns a copy of the per-column owner array (index = column),
// the wire representation a PartitionUpdate distributes.
func (p Partition) Owners() []int {
	return slices.Clone(p.colOwner)
}

// MoveColumn returns a new partition (version incremented) with column
// col reassigned to node to. Strips must stay contiguous, so col must be
// a boundary column of its current strip adjacent to to's strip, and the
// donor must keep at least one column.
func (p Partition) MoveColumn(col, to int) (Partition, error) {
	cols := len(p.colOwner)
	if col < 0 || col >= cols {
		return Partition{}, fmt.Errorf("cluster: column %d outside [0,%d)", col, cols)
	}
	if to < 0 || to >= len(p.regions) {
		return Partition{}, fmt.Errorf("cluster: node %d outside [0,%d)", to, len(p.regions))
	}
	from := p.colOwner[col]
	if from == to {
		return Partition{}, fmt.Errorf("cluster: column %d already owned by node %d", col, to)
	}
	adjacent := (col > 0 && p.colOwner[col-1] == to) ||
		(col < cols-1 && p.colOwner[col+1] == to)
	if !adjacent {
		return Partition{}, fmt.Errorf("cluster: node %d's strip is not adjacent to column %d", to, col)
	}
	donorCols := 0
	for _, o := range p.colOwner {
		if o == from {
			donorCols++
		}
	}
	if donorCols <= 1 {
		return Partition{}, fmt.Errorf("cluster: node %d cannot give up its last column", from)
	}
	owners := slices.Clone(p.colOwner)
	owners[col] = to
	np := Partition{
		geom:     p.geom,
		regions:  regionsFromOwners(p.geom, owners, len(p.regions)),
		colOwner: owners,
		version:  p.version + 1,
	}
	return np, nil
}

// PartitionFromOwners reconstructs a partition from a distributed owner
// array and version (the PartitionUpdate payload). The array must assign
// every column, give each of the nodes at least one column, and keep
// strips contiguous in ascending node order — everything MoveColumn
// preserves — so a corrupt or crafted update cannot install an
// inconsistent map.
func PartitionFromOwners(geom grid.Geometry, owners []int, nodes int, version uint64) (Partition, error) {
	cols, _ := geom.Dims()
	if len(owners) != cols {
		return Partition{}, fmt.Errorf("cluster: owner array covers %d of %d columns", len(owners), cols)
	}
	if nodes < 1 || nodes > cols {
		return Partition{}, fmt.Errorf("cluster: node count %d outside [1,%d]", nodes, cols)
	}
	next := 0
	for c, o := range owners {
		switch {
		case o == next-1: // still inside the current strip
		case o == next && next < nodes: // first column of the next strip
			next++
		default:
			return Partition{}, fmt.Errorf("cluster: owner array not contiguous ascending at column %d (node %d)", c, o)
		}
	}
	if next != nodes {
		return Partition{}, fmt.Errorf("cluster: owner array covers %d of %d nodes", next, nodes)
	}
	return Partition{
		geom:     geom,
		regions:  regionsFromOwners(geom, owners, nodes),
		colOwner: slices.Clone(owners),
		version:  version,
	}, nil
}

// regionsFromOwners recomputes per-node strip rectangles from a
// contiguous ascending owner array.
func regionsFromOwners(geom grid.Geometry, owners []int, nodes int) []geo.Rect {
	cols := len(owners)
	b := geom.Bounds()
	cellW := b.Width() / float64(cols)
	regions := make([]geo.Rect, nodes)
	first := make([]int, nodes)
	last := make([]int, nodes)
	for i := range first {
		first[i] = -1
	}
	for c, o := range owners {
		if first[o] < 0 {
			first[o] = c
		}
		last[o] = c
	}
	for i := 0; i < nodes; i++ {
		x0 := b.Min.X + float64(first[i])*cellW
		x1 := b.Min.X + float64(last[i]+1)*cellW
		if last[i] == cols-1 {
			x1 = b.Max.X // absorb float rounding at the world edge
		}
		regions[i] = geo.NewRect(geo.Pt(x0, b.Min.Y), geo.Pt(x1, b.Max.Y))
	}
	return regions
}

// Region returns node i's strip.
func (p Partition) Region(i int) geo.Rect { return p.regions[i] }

// CellOwner returns the node owning a grid cell; restricted radio
// surfaces filter on it.
func (p Partition) CellOwner(c grid.Cell) int { return p.colOwner[c.Col] }

// NodeOf returns the node owning the point. It goes through CellOf —
// which clamps out-of-world points to border cells — so ownership always
// agrees with the cell-level broadcast clipping.
func (p Partition) NodeOf(pt geo.Point) int {
	return p.colOwner[p.geom.CellOf(pt).Col]
}

// VisitIntersecting calls fn once for each node owning at least one grid
// cell intersecting the region, in ascending node order. The node set
// exactly tiles the broadcast's cell coverage, so forwarding to these
// nodes (and letting each clip to its own cells) reproduces an
// unrestricted broadcast.
func (p Partition) VisitIntersecting(region geo.Circle, fn func(node int)) {
	if region.R < 0 {
		return
	}
	seen := make([]bool, len(p.regions))
	p.geom.VisitCellsIntersecting(region, func(c grid.Cell) bool {
		seen[p.colOwner[c.Col]] = true
		return true
	})
	for i, s := range seen {
		if s {
			fn(i)
		}
	}
}

// PartitionRef is a shared, atomically swappable view of the current
// partition. Radio cell filters capture it instead of a partition value,
// so a balancer-driven map change retargets every node's restricted
// broadcast surface at the instant the cluster installs the new map —
// clipping and forwarding always read the same map, which is what keeps
// rebroadcasts exactly tiling the world mid-migration.
type PartitionRef struct {
	p atomic.Pointer[Partition]
}

// NewPartitionRef returns a ref holding p.
func NewPartitionRef(p Partition) *PartitionRef {
	r := &PartitionRef{}
	r.store(p)
	return r
}

// Load returns the current partition. Partition values are immutable,
// so the returned value stays internally consistent however long the
// caller holds it.
func (r *PartitionRef) Load() Partition { return *r.p.Load() }

func (r *PartitionRef) store(p Partition) { r.p.Store(&p) }
