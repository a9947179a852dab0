package ratings

import (
	"sort"

	"fairhealth/internal/model"
)

// Cell is one rating in an item's column: the rater's position in the
// owning snapshot's Users() and the raw rating.
type Cell struct {
	User   uint32
	Rating model.Rating
}

// Columns is a snapshot's item-major index: for every catalogue
// position, the raters of that item ascending by user position, plus
// each user's mean μ_u by position. Ratings are raw, so a write that
// moves a user's mean touches no column but the ones the user rates.
// It is immutable once published and shared by reference.
type Columns struct {
	cols  [][]Cell
	means []float64
}

// Column returns the raters of catalogue position k, ascending by user
// position. The slice is shared — callers must not modify it.
func (c *Columns) Column(k uint32) []Cell { return c.cols[k] }

// Mean returns μ_u of the user at position p, bit-identical to that
// user's Row.Mean.
func (c *Columns) Mean(p uint32) float64 { return c.means[p] }

// rated returns how many columns are non-empty — the items someone
// rates, which the catalogue may outnumber — and how many cells they
// hold.
func (c *Columns) rated() (items, cells int) {
	for _, col := range c.cols {
		if len(col) > 0 {
			items++
			cells += len(col)
		}
	}
	return items, cells
}

// Position returns u's position in Users(); ok is false when u has no
// ratings in this snapshot.
func (sn *Snapshot) Position(u model.UserID) (p uint32, ok bool) {
	k := sort.Search(len(sn.users), func(j int) bool { return sn.users[j] >= u })
	if k < len(sn.users) && sn.users[k] == u {
		return uint32(k), true
	}
	return 0, false
}

// Columns returns the snapshot's item-major index, building it on
// first use: seeding and item-only traffic never pay for it. A snapshot
// patched from one that already had an index inherits a patched copy
// (see patchSnapshot), so the full build runs once per store unless the
// user list or the catalogue changes.
func (sn *Snapshot) Columns() *Columns {
	if c := sn.cols.Load(); c != nil {
		return c
	}
	sn.colsMu.Lock()
	defer sn.colsMu.Unlock()
	if c := sn.cols.Load(); c != nil {
		return c
	}
	c := buildColumns(sn)
	sn.cols.Store(c)
	return c
}

// buildColumns builds the index from the snapshot's rows into one
// backing array: a counting pass sizes every column, a second pass
// fills them in ascending user position.
func buildColumns(sn *Snapshot) *Columns {
	rows := make([]Row, len(sn.users))
	means := make([]float64, len(sn.users))
	start := make([]int, len(sn.items)+1)
	for p, u := range sn.users {
		rows[p], _ = sn.Row(u)
		means[p] = rows[p].Mean
		for _, k := range rows[p].Idx {
			start[k+1]++
		}
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	cells := make([]Cell, start[len(sn.items)])
	next := append([]int(nil), start[:len(sn.items)]...)
	for p, row := range rows {
		for j, k := range row.Idx {
			cells[next[k]] = Cell{User: uint32(p), Rating: row.Ratings[j]}
			next[k]++
		}
	}
	cols := make([][]Cell, len(sn.items))
	for k := range cols {
		cols[k] = cells[start[k]:start[k+1]:start[k+1]]
	}
	return &Columns{cols: cols, means: means}
}

// patched returns the index of sn, which was patched from prev (whose
// index c is) for the dirty users, with the same user list and
// catalogue. Only the columns whose cell for a dirty user changed are
// copied: ratings are raw, so the items a user still rates the same
// keep their columns even when the user's mean moved. Every other
// column is shared with c.
func (c *Columns) patched(prev, sn *Snapshot, dirty []model.UserID) *Columns {
	next := &Columns{
		cols:  append([][]Cell(nil), c.cols...),
		means: append([]float64(nil), c.means...),
	}
	owned := make(map[uint32]bool)
	for _, u := range dirty {
		p, ok := sn.Position(u)
		if !ok {
			continue
		}
		old, _ := prev.Row(u)
		row, _ := sn.Row(u)
		next.means[p] = row.Mean
		// Merge the two ascending rows: delete what left, write what
		// arrived or changed.
		i, j := 0, 0
		for i < len(old.Idx) || j < len(row.Idx) {
			switch {
			case j == len(row.Idx) || (i < len(old.Idx) && old.Idx[i] < row.Idx[j]):
				next.set(old.Idx[i], p, 0, false, owned)
				i++
			case i == len(old.Idx) || row.Idx[j] < old.Idx[i]:
				next.set(row.Idx[j], p, row.Ratings[j], true, owned)
				j++
			default:
				if old.Ratings[i] != row.Ratings[j] {
					next.set(row.Idx[j], p, row.Ratings[j], true, owned)
				}
				i++
				j++
			}
		}
	}
	return next
}

// set writes (present) or deletes (!present) user p's cell in column k,
// copying the column the first time this patch touches it.
func (c *Columns) set(k, p uint32, r model.Rating, present bool, owned map[uint32]bool) {
	col := c.cols[k]
	if !owned[k] {
		col = append(make([]Cell, 0, len(col)+1), col...)
		owned[k] = true
	}
	i := sort.Search(len(col), func(j int) bool { return col[j].User >= p })
	found := i < len(col) && col[i].User == p
	switch {
	case present && found:
		col[i].Rating = r
	case present:
		col = append(col, Cell{})
		copy(col[i+1:], col[i:])
		col[i] = Cell{User: p, Rating: r}
	case found:
		col = append(col[:i], col[i+1:]...)
	}
	c.cols[k] = col
}
