package ratings

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"fairhealth/internal/model"
)

func randomStore(t *testing.T, seed int64, users, items, perUser int) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := New()
	for u := 0; u < users; u++ {
		uid := model.UserID(fmt.Sprintf("u%03d", u))
		for _, k := range rng.Perm(items)[:perUser] {
			iid := model.ItemID(fmt.Sprintf("i%03d", k))
			r := model.Rating(1 + 4*rng.Float64())
			if err := s.Add(uid, iid, r); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
	}
	return s
}

// TestSnapshotMatchesMapView pins the flat view to the map-based
// accessors bit for bit: same users, same ascending items, same
// ratings, and means identical to MeanRating (which sums in ascending
// item order — the order buildSnapshot replicates).
func TestSnapshotMatchesMapView(t *testing.T) {
	s := randomStore(t, 1, 40, 60, 25)
	sn := s.Snapshot()

	users := s.Users()
	if got, want := sn.NumUsers(), len(users); got != want {
		t.Fatalf("NumUsers = %d, want %d", got, want)
	}
	for k, u := range sn.Users() {
		if u != users[k] {
			t.Fatalf("Users()[%d] = %s, want %s", k, u, users[k])
		}
	}
	for _, u := range users {
		row, ok := sn.Row(u)
		if !ok {
			t.Fatalf("Row(%s) missing", u)
		}
		items := s.ItemsRatedBy(u)
		if len(row.Items) != len(items) || len(row.Ratings) != len(items) {
			t.Fatalf("row %s: %d items / %d ratings, want %d", u, len(row.Items), len(row.Ratings), len(items))
		}
		for j, i := range items {
			if row.Items[j] != i {
				t.Fatalf("row %s item[%d] = %s, want %s", u, j, row.Items[j], i)
			}
			want, _ := s.Rating(u, i)
			if row.Ratings[j] != want {
				t.Fatalf("row %s rating[%s] = %v, want %v", u, i, row.Ratings[j], want)
			}
			got, ok := row.Rating(i)
			if !ok || got != want {
				t.Fatalf("row %s Rating(%s) = %v,%v, want %v,true", u, i, got, ok, want)
			}
		}
		if _, ok := row.Rating("nope"); ok {
			t.Fatalf("row %s Rating(nope) = ok", u)
		}
		mean, ok := s.MeanRating(u)
		if !ok || row.Mean != mean {
			t.Fatalf("row %s mean = %v, want %v (bit-identical)", u, row.Mean, mean)
		}
	}
	if _, ok := sn.Row("ghost"); ok {
		t.Fatal("Row(ghost) = ok")
	}
}

// TestSnapshotCachingAndRedirty: the cached snapshot is reused
// pointer-identical until a write lands; every mutation kind (Add,
// AddNew, Remove) re-dirties it.
func TestSnapshotCachingAndRedirty(t *testing.T) {
	s := New()
	if err := s.Add("a", "x", 3); err != nil {
		t.Fatal(err)
	}
	sn1 := s.Snapshot()
	if sn2 := s.Snapshot(); sn2 != sn1 {
		t.Fatal("clean store rebuilt the snapshot")
	}

	mutations := []struct {
		name string
		fn   func() error
	}{
		{"Add", func() error { return s.Add("a", "y", 4) }},
		{"AddNew", func() error { return s.AddNew("b", "x", 2) }},
		{"Remove", func() error { return s.Remove("b", "x") }},
	}
	prev := sn1
	for _, m := range mutations {
		if err := m.fn(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		sn := s.Snapshot()
		if sn == prev {
			t.Fatalf("%s did not re-dirty the snapshot", m.name)
		}
		if sn.Version() <= prev.Version() {
			t.Fatalf("%s: version %d not past %d", m.name, sn.Version(), prev.Version())
		}
		prev = sn
	}

	// Failed mutations must not dirty the view.
	sn := s.Snapshot()
	if err := s.Remove("ghost", "x"); err == nil {
		t.Fatal("Remove(ghost) succeeded")
	}
	if s.Snapshot() != sn {
		t.Fatal("failed Remove re-dirtied the snapshot")
	}
}

// TestSnapshotSeesOnWriteVisibleState: inside an OnWrite callback the
// snapshot already reflects the write that triggered it — the version
// bump happens before observers run.
func TestSnapshotSeesOnWriteVisibleState(t *testing.T) {
	s := New()
	var fromCallback model.Rating
	s.OnWrite(func(u model.UserID) {
		row, ok := s.Snapshot().Row(u)
		if ok {
			if r, ok := row.Rating("x"); ok {
				fromCallback = r
			}
		}
	})
	if err := s.Add("a", "x", 5); err != nil {
		t.Fatal(err)
	}
	if fromCallback != 5 {
		t.Fatalf("OnWrite snapshot saw rating %v, want 5", fromCallback)
	}
}

func TestRowOverlapAtLeast(t *testing.T) {
	s := randomStore(t, 2, 30, 40, 12)
	sn := s.Snapshot()
	users := sn.Users()
	for _, a := range users[:10] {
		for _, b := range users {
			shared := len(s.CoRated(a, b))
			ra, _ := sn.Row(a)
			rb, _ := sn.Row(b)
			for _, min := range []int{0, 1, shared - 1, shared, shared + 1, 1000} {
				want := shared >= min || min <= 0
				if got := ra.OverlapAtLeast(rb, min); got != want {
					t.Fatalf("OverlapAtLeast(%s,%s,%d) = %v, want %v (shared=%d)", a, b, min, got, want, shared)
				}
			}
		}
	}
}

// TestSnapshotIncrementalMatchesFull interleaves every mutation kind
// with snapshot reads and pins each patched snapshot bit-identical to
// a from-scratch full build: same user list, same rows, same means.
// It also asserts the point of the patch path — rows of untouched
// users are shared by reference across snapshots, not recopied.
func TestSnapshotIncrementalMatchesFull(t *testing.T) {
	s := randomStore(t, 5, 30, 40, 15)
	rng := rand.New(rand.NewSource(99))
	prev := s.Snapshot()
	for step := 0; step < 120; step++ {
		uid := model.UserID(fmt.Sprintf("u%03d", rng.Intn(35))) // incl. new users
		iid := model.ItemID(fmt.Sprintf("i%03d", rng.Intn(40)))
		switch rng.Intn(3) {
		case 0:
			_ = s.Remove(uid, iid)
		default:
			if err := s.Add(uid, iid, model.Rating(1+4*rng.Float64())); err != nil {
				t.Fatal(err)
			}
		}
		sn := s.Snapshot()
		full := s.buildSnapshot(sn.Version())
		if len(sn.Users()) != len(full.Users()) {
			t.Fatalf("step %d: %d users, full build has %d", step, len(sn.Users()), len(full.Users()))
		}
		for k, u := range full.Users() {
			if sn.Users()[k] != u {
				t.Fatalf("step %d: user[%d] = %s, full build has %s", step, k, sn.Users()[k], u)
			}
			got, _ := sn.Row(u)
			want, _ := full.Row(u)
			if len(got.Items) != len(want.Items) || got.Mean != want.Mean {
				t.Fatalf("step %d row %s: %d items mean %v, full build %d items mean %v",
					step, u, len(got.Items), got.Mean, len(want.Items), want.Mean)
			}
			for j := range want.Items {
				if got.Items[j] != want.Items[j] || got.Ratings[j] != want.Ratings[j] {
					t.Fatalf("step %d row %s[%d]: (%s,%v) vs full (%s,%v)",
						step, u, j, got.Items[j], got.Ratings[j], want.Items[j], want.Ratings[j])
				}
			}
			// Untouched rows must be the previous snapshot's slices.
			if u != uid {
				if pr, ok := prev.Row(u); ok && len(pr.Items) > 0 && len(got.Items) > 0 &&
					&pr.Items[0] != &got.Items[0] {
					t.Fatalf("step %d: untouched row %s was recopied", step, u)
				}
			}
		}
		prev = sn
	}
}

// TestSnapshotNoTornViews hammers the store with writes — some of them
// introducing new items — while readers take snapshots, asserting every
// observed row is internally consistent: parallel slices, ascending
// items, a mean that equals the ascending-order sum of exactly the
// observed ratings, and indices that address the snapshot's catalogue.
//
// Each writer is paced to at most pace writes per reader snapshot.
// Unpaced, the writers add items faster than the reader can check
// them, and every snapshot after a new item re-addresses every row, so
// the reader's time per snapshot grows without bound.
func TestSnapshotNoTornViews(t *testing.T) {
	s := New()
	const n = 50
	for u := 0; u < n; u++ {
		uid := model.UserID(fmt.Sprintf("u%02d", u))
		if err := s.Add(uid, "i0", 3); err != nil {
			t.Fatal(err)
		}
	}
	const pace = 64
	var (
		mu      sync.Mutex
		resume  = sync.NewCond(&mu)
		taken   int // snapshots the reader has taken
		stopped bool
	)
	// allowed blocks a writer that has made done writes until the reader
	// catches up, and reports false once the reader is finished.
	allowed := func(done int) bool {
		mu.Lock()
		defer mu.Unlock()
		for !stopped && done >= pace*(taken+1) {
			resume.Wait()
		}
		return !stopped
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for done := 0; allowed(done); done++ {
				uid := model.UserID(fmt.Sprintf("u%02d", rng.Intn(n)))
				iid := model.ItemID(fmt.Sprintf("i%d", rng.Intn(20)))
				if rng.Intn(8) == 0 { // a brand-new item: the catalogue is rebuilt
					iid = model.ItemID(fmt.Sprintf("n%d-%d", seed, rng.Int()))
				}
				if rng.Intn(4) == 0 {
					_ = s.Remove(uid, iid)
				} else {
					_ = s.Add(uid, iid, model.Rating(1+4*rng.Float64()))
				}
			}
		}(int64(w))
	}
	defer func() {
		mu.Lock()
		stopped = true
		mu.Unlock()
		resume.Broadcast()
		wg.Wait()
	}()
	for k := 0; k < 200; k++ {
		sn := s.Snapshot()
		mu.Lock()
		taken++
		mu.Unlock()
		resume.Broadcast()
		for _, u := range sn.Users() {
			row, ok := sn.Row(u)
			if !ok {
				t.Fatalf("listed user %s has no row", u)
			}
			if len(row.Items) != len(row.Ratings) || len(row.Items) == 0 {
				t.Fatalf("torn row %s: %d items / %d ratings", u, len(row.Items), len(row.Ratings))
			}
			var sum float64
			for j, i := range row.Items {
				if j > 0 && row.Items[j-1] >= i {
					t.Fatalf("row %s items not strictly ascending at %d", u, j)
				}
				sum += float64(row.Ratings[j])
			}
			if mean := sum / float64(len(row.Items)); mean != row.Mean {
				t.Fatalf("row %s mean %v does not match its own ratings (%v)", u, row.Mean, mean)
			}
		}
		checkCatalogue(t, sn)
	}
}

// checkCatalogue asserts the catalogue invariants of one snapshot: the
// catalogue is strictly ascending and every row's Idx addresses its own
// items in it.
func checkCatalogue(t *testing.T, sn *Snapshot) {
	t.Helper()
	cat := sn.Items()
	for k := 1; k < len(cat); k++ {
		if cat[k-1] >= cat[k] {
			t.Fatalf("catalogue not strictly ascending at %d: %s, %s", k, cat[k-1], cat[k])
		}
	}
	for _, u := range sn.Users() {
		row, _ := sn.Row(u)
		if len(row.Idx) != len(row.Items) {
			t.Fatalf("row %s: %d indices for %d items", u, len(row.Idx), len(row.Items))
		}
		for j, k := range row.Idx {
			if int(k) >= len(cat) || cat[k] != row.Items[j] {
				t.Fatalf("row %s: Idx[%d] = %d does not address %s", u, j, k, row.Items[j])
			}
		}
	}
}

// TestSnapshotCatalogueProperty drives random add/change/remove
// sequences — an item's first-ever rating (a catalogue rebuild), an
// item's last rating going, a user's first and last rating — and pins
// every snapshot's catalogue invariants and its rows against a fresh
// full build.
func TestSnapshotCatalogueProperty(t *testing.T) {
	s := randomStore(t, 7, 20, 15, 6)
	rng := rand.New(rand.NewSource(31))
	nextItem := 15
	var rebuilds, itemGone, userJoined, userLeft int
	for step := 0; step < 400; step++ {
		prevCat := s.Snapshot().Items()
		uid := model.UserID(fmt.Sprintf("u%03d", rng.Intn(24))) // incl. new users
		before := s.NumRatedBy(uid)
		switch op := rng.Intn(10); {
		case op == 0: // a brand-new item
			iid := model.ItemID(fmt.Sprintf("i%03d", nextItem))
			nextItem++
			if err := s.Add(uid, iid, 3); err != nil {
				t.Fatal(err)
			}
		case op == 1: // every rating of one item goes
			iid := model.ItemID(fmt.Sprintf("i%03d", rng.Intn(nextItem)))
			for _, v := range s.UsersWhoRated(iid) {
				_ = s.Remove(v, iid)
				_ = s.Snapshot()
			}
			if len(s.UsersWhoRated(iid)) == 0 {
				itemGone++
			}
		case op == 2: // the user's last rating goes
			for _, i := range s.ItemsRatedBy(uid) {
				_ = s.Remove(uid, i)
			}
		case op < 5:
			_ = s.Remove(uid, model.ItemID(fmt.Sprintf("i%03d", rng.Intn(nextItem))))
		default: // add or change
			iid := model.ItemID(fmt.Sprintf("i%03d", rng.Intn(nextItem)))
			if err := s.Add(uid, iid, model.Rating(1+4*rng.Float64())); err != nil {
				t.Fatal(err)
			}
		}
		switch after := s.NumRatedBy(uid); {
		case before == 0 && after > 0:
			userJoined++
		case before > 0 && after == 0:
			userLeft++
		}
		sn := s.Snapshot()
		checkCatalogue(t, sn)
		if len(sn.Items()) != len(prevCat) || (len(prevCat) > 0 && &sn.Items()[0] != &prevCat[0]) {
			rebuilds++
		}
		full := s.buildSnapshot(sn.Version())
		checkCatalogue(t, full)
		if len(sn.Users()) != len(full.Users()) {
			t.Fatalf("step %d: %d users, full build has %d", step, len(sn.Users()), len(full.Users()))
		}
		for k, u := range full.Users() {
			got, _ := sn.Row(u)
			want, _ := full.Row(u)
			if sn.Users()[k] != u || !reflect.DeepEqual(got.Items, want.Items) ||
				!reflect.DeepEqual(got.Ratings, want.Ratings) || got.Mean != want.Mean {
				t.Fatalf("step %d: row %s differs from a full build", step, u)
			}
		}
	}
	if rebuilds == 0 || itemGone == 0 || userJoined == 0 || userLeft == 0 {
		t.Fatalf("coverage: %d rebuilds, %d items gone, %d users joined, %d left", rebuilds, itemGone, userJoined, userLeft)
	}
}
