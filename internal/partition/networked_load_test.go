package partition_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fairhealth"
	"fairhealth/internal/dataset"
	"fairhealth/internal/model"
	"fairhealth/internal/partition"
	"fairhealth/internal/scoring"
)

// loadInput is a synthetic world as Load takes it: ratings, patients,
// and the documents that go in beside them.
type loadInput struct {
	ratings  []model.Triple
	patients []fairhealth.Patient
	docs     []dataset.Document
}

func genLoad(t testing.TB, seed int64, users, items, perUser int) loadInput {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{Seed: seed, Users: users, Items: items, RatingsPerUser: perUser})
	if err != nil {
		t.Fatal(err)
	}
	in := loadInput{ratings: ds.Ratings.Triples(), docs: ds.Documents}
	for _, id := range ds.Profiles.IDs() {
		prof, err := ds.Profiles.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		problems := make([]string, len(prof.Problems))
		for i, c := range prof.Problems {
			problems[i] = string(c)
		}
		in.patients = append(in.patients, fairhealth.Patient{
			ID: string(prof.ID), Age: prof.Age, Gender: string(prof.Gender),
			Problems: problems, Medications: prof.Medications,
		})
	}
	return in
}

func (in loadInput) records() int { return len(in.ratings) + len(in.patients) }

// loader is the bulk write surface shared by System and both routers.
type loader interface {
	Load(ratings []model.Triple, patients []fairhealth.Patient) error
	AddDocument(id, title, body string) error
}

// loadAll loads in through Load, then adds its documents.
func loadAll(t testing.TB, tgt loader, in loadInput) {
	t.Helper()
	if err := tgt.Load(in.ratings, in.patients); err != nil {
		t.Fatal(err)
	}
	for _, d := range in.docs {
		if err := tgt.AddDocument(string(d.ID), d.Title, d.Body); err != nil {
			t.Fatal(err)
		}
	}
}

// checkCurrent asserts every peer is live and has applied exactly the
// router's records, and that every record counted one owned write.
func checkCurrent(t *testing.T, name string, rows []partition.Stats, records int) {
	t.Helper()
	writes := 0
	for _, s := range rows {
		if !s.Live || s.AppliedSeq != uint64(records) || s.ReplayLag != 0 {
			t.Fatalf("%s: peer %d live=%v applied=%d lag=%d, want live at %d", name, s.ID, s.Live, s.AppliedSeq, s.ReplayLag, records)
		}
		writes += int(s.OwnedWrites)
	}
	if writes != records {
		t.Fatalf("%s: owned writes sum %d, want %d (one per record)", name, writes, records)
	}
}

// TestLoadMatchesOneWriteAtATime: a batched Load on both routers
// answers exactly what a System given the same writes one at a time
// answers, across every scorer × aggregation.
func TestLoadMatchesOneWriteAtATime(t *testing.T) {
	in := genLoad(t, 53, 40, 90, 20)
	truth, err := fairhealth.New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer truth.Close()
	for _, tr := range in.ratings {
		if err := truth.AddRating(string(tr.User), string(tr.Item), float64(tr.Value)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range in.patients {
		if err := truth.AddPatient(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range in.docs {
		if err := truth.AddDocument(string(d.ID), d.Title, d.Body); err != nil {
			t.Fatal(err)
		}
	}

	net, _ := startNetCluster(t, baseConfig(), 3)
	inproc, err := partition.New(baseConfig(), partition.Options{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()
	loadAll(t, net, in)
	loadAll(t, inproc, in)
	checkCurrent(t, "networked", net.PartitionStats(), in.records())
	checkCurrent(t, "in-process", inproc.PartitionStats(), in.records())
	if got, want := net.Stats(), truth.Stats(); got != want {
		t.Fatalf("networked stats %+v, want %+v", got, want)
	}

	users := truth.SortedUsers()
	groups := [][]string{
		{users[1], users[9], users[17]},
		{users[2], users[5]},
		{users[30], users[31], users[32], users[33]},
	}
	for _, scorer := range scoring.Names() {
		for _, aggr := range []string{"avg", "min"} {
			for _, g := range groups {
				q := fairhealth.GroupQuery{Members: g, Z: 5, Scorer: scorer, Aggregation: aggr, Explain: true}
				serveEqual(t, scorer+"/"+aggr+" networked", truth, net, q)
				serveEqual(t, scorer+"/"+aggr+" in-process", truth, inproc, q)
			}
		}
	}
}

// TestLoadShipsCatchupBlocks: a demo-sized Load costs each peer one
// Catchup RPC per CatchupBlock records, not one Apply per record.
func TestLoadShipsCatchupBlocks(t *testing.T) {
	in := genLoad(t, 1, 1000, 120, 25)
	if in.records() != 26000 {
		t.Fatalf("dataset has %d records, want 26000", in.records())
	}
	const peers, block = 3, 512
	workers := make([]*netWorker, peers)
	addrs := make([]string, peers)
	for i := range workers {
		workers[i] = startNetWorker(t, baseConfig(), "")
		addrs[i] = workers[i].addr
	}
	// No health ticks: every RPC in the delta is the Load's.
	coord, err := partition.NewNetworked(baseConfig(), addrs, partition.NetOptions{HealthEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		coord.Close()
		for _, w := range workers {
			w.stop()
		}
	})

	before := coord.TransportStats()
	if err := coord.Load(in.ratings, in.patients); err != nil {
		t.Fatal(err)
	}
	after := coord.TransportStats()
	blocks := uint64(peers * ((in.records() + block - 1) / block)) // 3 × 51
	if got := after.RPCs - before.RPCs; got != blocks {
		t.Fatalf("Load cost %d RPCs, want %d", got, blocks)
	}
	if got := after.CatchupBlocks - before.CatchupBlocks; got != blocks {
		t.Fatalf("Load shipped %d blocks, want %d", got, blocks)
	}
	if got, want := after.CatchupRecords-before.CatchupRecords, uint64(peers*in.records()); got != want {
		t.Fatalf("Load shipped %d records, want %d", got, want)
	}
	checkCurrent(t, "networked", coord.PartitionStats(), in.records())
}

// TestLoadRefusesBadRecordWhole: one invalid rating or patient anywhere
// in a batch refuses all of it — nothing is applied, sequenced or
// logged.
func TestLoadRefusesBadRecordWhole(t *testing.T) {
	in := genLoad(t, 59, 24, 60, 10)
	dir := t.TempDir()
	net, _ := startNetCluster(t, baseConfig(), 3)
	inproc, err := partition.New(baseConfig(), partition.Options{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()
	persistent, err := partition.NewPersistent(baseConfig(), partition.Options{Partitions: 3}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer persistent.Close()
	// logSize is the persistent router's log; the others have none.
	logSize := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, "events.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	// A first, valid half so the refused batch lands on real state.
	half := len(in.ratings) / 2
	badRating := append([]model.Triple(nil), in.ratings[half:]...)
	badRating[len(badRating)/2].Value = 7
	badPatient := append([]fairhealth.Patient(nil), in.patients...)
	badPatient[len(badPatient)/2].Age = 200

	engines := map[string]interface {
		loader
		Stats() fairhealth.Stats
		PartitionStats() []partition.Stats
	}{"networked": net, "in-process": inproc, "persistent": persistent}
	for name, e := range engines {
		if err := e.Load(in.ratings[:half], nil); err != nil {
			t.Fatal(err)
		}
		stats, rows, size := e.Stats(), e.PartitionStats(), logSize()
		for bad, batch := range map[string]loadInput{
			"rating 7":        {ratings: badRating, patients: in.patients},
			"invalid patient": {ratings: in.ratings[half:], patients: badPatient},
		} {
			if err := e.Load(batch.ratings, batch.patients); err == nil {
				t.Fatalf("%s: Load with a %s succeeded", name, bad)
			}
			if got := e.Stats(); got != stats {
				t.Fatalf("%s: %s moved stats %+v → %+v", name, bad, stats, got)
			}
			if got := e.PartitionStats(); !reflect.DeepEqual(got, rows) {
				t.Fatalf("%s: %s moved partition stats %+v → %+v", name, bad, rows, got)
			}
			if got := logSize(); got != size {
				t.Fatalf("%s: %s grew the log %d → %d bytes", name, bad, size, got)
			}
		}
	}
}

// TestLoadWithWorkerDownConverges: a worker stopped before a Load is
// marked down and the Load succeeds; restarted empty, the worker
// converges through catch-up and answers match again.
func TestLoadWithWorkerDownConverges(t *testing.T) {
	in := genLoad(t, 61, 36, 90, 20)
	truth, err := fairhealth.New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer truth.Close()
	loadAll(t, truth, in)

	coord, workers := startNetCluster(t, baseConfig(), 3)
	workers[1].stop()
	if err := coord.Load(in.ratings, in.patients); err != nil {
		t.Fatalf("Load with a worker down: %v", err)
	}
	if live := coord.LiveCount(); live != 2 {
		t.Fatalf("live peers = %d after a Load past a stopped worker, want 2", live)
	}
	for _, d := range in.docs {
		if err := coord.AddDocument(string(d.ID), d.Title, d.Body); err != nil {
			t.Fatal(err)
		}
	}

	workers[1].start(t)
	waitLive(t, coord, 3)
	for _, s := range coord.PartitionStats() {
		if s.AppliedSeq != uint64(in.records()) {
			t.Fatalf("peer %d applied %d after rejoin, want %d", s.ID, s.AppliedSeq, in.records())
		}
	}
	for _, g := range memoGroups(t, coord, coord.Patients(), 3) {
		for _, scorer := range scoring.Names() {
			serveEqual(t, "rejoined "+scorer, truth, coord, fairhealth.GroupQuery{Members: g, Z: 5, Scorer: scorer, Explain: true})
		}
	}
}
