package partition_test

import (
	"context"
	"reflect"
	"testing"

	"fairhealth"
	"fairhealth/internal/partition"
)

// TestRestartedPartitionKeepsDocuments: documents are not logged, so a
// partition killed and restarted must get them back from the router,
// and corpus-global reads must keep answering in full.
func TestRestartedPartitionKeepsDocuments(t *testing.T) {
	single, err := fairhealth.New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	seed(t, single, 47, 24)
	coord, err := partition.New(baseConfig(), partition.Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	seed(t, coord, 47, 24)

	docs := coord.Stats().Documents
	hits := coord.SearchDocuments("guide", 5)
	if docs != 90 || len(hits) != 5 {
		t.Fatalf("seeded %d documents, %d hits; want 90 and 5", docs, len(hits))
	}
	if err := coord.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := coord.Restart(0); err != nil {
		t.Fatal(err)
	}
	if got := coord.Stats().Documents; got != docs {
		t.Fatalf("documents after restart = %d, want %d", got, docs)
	}
	if got := coord.SearchDocuments("guide", 5); !reflect.DeepEqual(got, hits) {
		t.Fatalf("search after restart diverged:\nbefore: %+v\nafter:  %+v", hits, got)
	}

	// The restarted partition itself holds the documents: a search
	// routed to it answers as a single System does.
	for _, u := range coord.Patients() {
		if coord.Owner(u) != 0 {
			continue
		}
		want, err := single.SearchPersonalized(u, "guide", 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.SearchPersonalized(u, "guide", 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("search routed to the restarted partition diverged:\nsingle:      %+v\ncoordinator: %+v", want, got)
		}
		return
	}
	t.Fatal("partition 0 owns no patient")
}

// TestCoordinatorWarmGroupCostsNoWorkerCall: the in-process router
// answers a repeated group from its memo without calling a worker, and
// the first serve after a write equals a single System given the same
// write.
func TestCoordinatorWarmGroupCostsNoWorkerCall(t *testing.T) {
	coord, err := partition.New(baseConfig(), partition.Options{Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	seed(t, coord, 29, 24)
	ids := coord.Patients()
	q := fairhealth.GroupQuery{Members: []string{ids[0], ids[4], ids[8]}, Z: 5, Explain: true}
	assembles := func() (sum uint64) {
		for _, s := range coord.PartitionStats() {
			sum += s.Assembles
		}
		return sum
	}
	ctx := context.Background()

	cold, err := coord.Serve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	before, memo := assembles(), coord.CacheStats().Groups
	warm, err := coord.Serve(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm answer differs from cold")
	}
	if got := assembles(); got != before {
		t.Fatalf("warm serve assembled %d members on workers, want 0", got-before)
	}
	if hits := coord.CacheStats().Groups.Hits; hits != memo.Hits+1 {
		t.Fatalf("groups memo hits %d → %d, want one hit", memo.Hits, hits)
	}

	single, err := fairhealth.New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	seed(t, single, 29, 24)
	for _, tgt := range []seedTarget{single, coord} {
		if err := tgt.AddRating(ids[4], "doc0007", 2); err != nil {
			t.Fatal(err)
		}
	}
	serveEqual(t, "after write", single, coord, q)
}
