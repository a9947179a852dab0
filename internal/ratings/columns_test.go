package ratings

import (
	"fmt"
	"math"
	"testing"

	"fairhealth/internal/model"
)

// equalColumns reports the first difference between two column
// indexes, or "" when they hold the same cells and means bit for bit.
// Lengths are compared, not nil-ness: a patched column emptied by a
// removal and a rebuilt empty column are the same column.
func equalColumns(got, want *Columns) string {
	if len(got.cols) != len(want.cols) {
		return fmt.Sprintf("%d columns, want %d", len(got.cols), len(want.cols))
	}
	for k := range want.cols {
		g, w := got.cols[k], want.cols[k]
		if len(g) != len(w) {
			return fmt.Sprintf("column %d: %d cells, want %d", k, len(g), len(w))
		}
		for j := range w {
			if g[j].User != w[j].User || math.Float64bits(float64(g[j].Rating)) != math.Float64bits(float64(w[j].Rating)) {
				return fmt.Sprintf("column %d cell %d = %+v, want %+v", k, j, g[j], w[j])
			}
		}
	}
	if len(got.means) != len(want.means) {
		return fmt.Sprintf("%d means, want %d", len(got.means), len(want.means))
	}
	for p := range want.means {
		if math.Float64bits(got.means[p]) != math.Float64bits(want.means[p]) {
			return fmt.Sprintf("mean %d = %v, want %v", p, got.means[p], want.means[p])
		}
	}
	return ""
}

// cloneColumns deep-copies an index, to check later that a patch left
// its predecessor untouched.
func cloneColumns(c *Columns) *Columns {
	out := &Columns{cols: make([][]Cell, len(c.cols)), means: append([]float64(nil), c.means...)}
	for k, col := range c.cols {
		out.cols[k] = append([]Cell(nil), col...)
	}
	return out
}

// TestColumnsMatchRows pins a fresh index to the rows it is built from:
// every column ascending by user position, every cell the rater's row
// rating, every mean the row's Mean.
func TestColumnsMatchRows(t *testing.T) {
	s := randomStore(t, 3, 30, 40, 12)
	sn := s.Snapshot()
	cols := sn.Columns()
	cells := 0
	for k := range sn.Items() {
		col := cols.Column(uint32(k))
		for j, c := range col {
			if j > 0 && col[j-1].User >= c.User {
				t.Fatalf("column %d not strictly ascending at %d", k, j)
			}
			row, _ := sn.Row(sn.Users()[c.User])
			if r, ok := row.Rating(sn.Items()[k]); !ok || r != c.Rating {
				t.Fatalf("column %d cell %+v: row says %v,%v", k, c, r, ok)
			}
		}
		cells += len(col)
	}
	if cells != s.Len() {
		t.Fatalf("index holds %d cells, store %d ratings", cells, s.Len())
	}
	for p, u := range sn.Users() {
		row, _ := sn.Row(u)
		if got, ok := sn.Position(u); !ok || got != uint32(p) {
			t.Fatalf("Position(%s) = %d,%v, want %d", u, got, ok, p)
		}
		if cols.Mean(uint32(p)) != row.Mean {
			t.Fatalf("Mean(%d) = %v, want %v", p, cols.Mean(uint32(p)), row.Mean)
		}
	}
	if _, ok := sn.Position("ghost"); ok {
		t.Fatal("Position(ghost) ok")
	}
}

// TestColumnsPatchEqualsRebuild: after every kind of write, the index
// a snapshot inherits by patching its predecessor's equals one built
// from scratch, and the predecessor's index is left as it was. Writes
// that keep the user list and the catalogue must patch (the index is
// present before anyone asks for it); the others rebuild lazily.
func TestColumnsPatchEqualsRebuild(t *testing.T) {
	s := randomStore(t, 5, 25, 30, 10)
	// An item in the catalogue that u001 does not rate yet.
	var add model.ItemID
	for _, i := range s.Items() {
		if !s.HasRated("u001", i) {
			add = i
			break
		}
	}
	steps := []struct {
		name    string
		patched bool
		write   func() error
	}{
		{"add", true, func() error { return s.Add("u001", add, 2.25) }},
		{"overwrite", true, func() error { return s.Add("u001", add, 4.75) }},
		{"remove", true, func() error { return s.Remove("u001", add) }},
		{"burst over three users", true, func() error {
			for _, w := range []struct {
				u model.UserID
				i model.ItemID
			}{{"u002", "i000"}, {"u003", "i001"}, {"u004", "i002"}, {"u002", "i003"}} {
				if err := s.Add(w.u, w.i, 3.5); err != nil {
					return err
				}
			}
			return nil
		}},
		{"new user", false, func() error { return s.Add("u999", "i004", 1.25) }},
		{"new user's second rating", true, func() error { return s.Add("u999", "i005", 4.5) }},
		{"remove a user's last rating", false, func() error {
			for _, i := range s.ItemsRatedBy("u006") {
				if err := s.Remove("u006", i); err != nil {
					return err
				}
			}
			return nil
		}},
		{"rating on a new item", false, func() error { return s.Add("u007", "i999", 3.75) }},
		{"overwrite after rebuild", true, func() error { return s.Add("u007", "i999", 1.5) }},
	}
	prev := s.Snapshot()
	prev.Columns()
	for _, st := range steps {
		before := cloneColumns(prev.Columns())
		if err := st.write(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		sn := s.Snapshot()
		if got := sn.cols.Load() != nil; got != st.patched {
			t.Fatalf("%s: index inherited = %v, want %v", st.name, got, st.patched)
		}
		if diff := equalColumns(sn.Columns(), buildColumns(sn)); diff != "" {
			t.Fatalf("%s: patched index differs from rebuild: %s", st.name, diff)
		}
		if diff := equalColumns(prev.Columns(), before); diff != "" {
			t.Fatalf("%s: patch changed the predecessor's index: %s", st.name, diff)
		}
		prev = sn
	}
}
