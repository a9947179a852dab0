package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fairhealth"
	"fairhealth/internal/scoring"
)

// genTestData runs cmdGen into a temp dir and returns the ratings and
// profiles paths.
func genTestData(t *testing.T) (ratingsPath, profilesPath string) {
	t.Helper()
	dir := t.TempDir()
	if err := cmdGen([]string{"-seed", "3", "-users", "30", "-items", "40", "-ratings-per-user", "15", "-out", dir}); err != nil {
		t.Fatalf("cmdGen: %v", err)
	}
	return filepath.Join(dir, "ratings.csv"), filepath.Join(dir, "profiles.json")
}

func TestCmdGenWritesFiles(t *testing.T) {
	ratingsPath, profilesPath := genTestData(t)
	for _, p := range []string{ratingsPath, profilesPath} {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatalf("missing output %s: %v", p, err)
		}
		if info.Size() == 0 {
			t.Errorf("empty output %s", p)
		}
	}
	raw, err := os.ReadFile(ratingsPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 30*15 {
		t.Errorf("ratings rows = %d, want 450", len(lines))
	}
}

func TestCmdRecommend(t *testing.T) {
	ratingsPath, profilesPath := genTestData(t)
	if err := cmdRecommend([]string{"-ratings", ratingsPath, "-profiles", profilesPath, "-user", "patient0001", "-k", "5"}); err != nil {
		t.Errorf("cmdRecommend: %v", err)
	}
	if err := cmdRecommend([]string{"-ratings", ratingsPath}); err == nil {
		t.Error("missing -user accepted")
	}
	if err := cmdRecommend([]string{"-ratings", "/nonexistent.csv", "-user", "x"}); err == nil {
		t.Error("missing ratings file accepted")
	}
}

func TestCmdGroupMethods(t *testing.T) {
	ratingsPath, _ := genTestData(t)
	users := "patient0000,patient0001,patient0002"
	for _, method := range []string{"greedy", "brute", "topz"} {
		if err := cmdGroup([]string{"-ratings", ratingsPath, "-users", users, "-z", "4", "-method", method, "-m", "12"}); err != nil {
			t.Errorf("cmdGroup %s: %v", method, err)
		}
	}
	// mapreduce is not a serving method: the §IV pipeline is `fairrec mr`.
	for _, method := range []string{"psychic", "mapreduce"} {
		if err := cmdGroup([]string{"-ratings", ratingsPath, "-users", users, "-method", method}); !errors.Is(err, fairhealth.ErrBadQuery) {
			t.Errorf("-method %s: err = %v, want ErrBadQuery", method, err)
		}
	}
	if err := cmdGroup([]string{"-ratings", ratingsPath}); err == nil {
		t.Error("missing -users accepted")
	}
}

func TestCmdBatch(t *testing.T) {
	ratingsPath, _ := genTestData(t)
	groups := "patient0000,patient0001;patient0002,patient0003"
	if err := cmdBatch([]string{"-ratings", ratingsPath, "-groups", groups, "-z", "4"}); err != nil {
		t.Errorf("cmdBatch: %v", err)
	}
	if err := cmdBatch([]string{"-ratings", ratingsPath, "-groups", groups, "-z", "4", "-stream"}); err != nil {
		t.Errorf("cmdBatch -stream: %v", err)
	}
	if err := cmdBatch([]string{"-ratings", ratingsPath}); err == nil {
		t.Error("missing -groups accepted")
	}
}

func TestCmdMR(t *testing.T) {
	ratingsPath, _ := genTestData(t)
	if err := cmdMR([]string{"-ratings", ratingsPath, "-users", "patient0000,patient0001", "-z", "4"}); err != nil {
		t.Errorf("cmdMR: %v", err)
	}
	if err := cmdMR([]string{"-ratings", ratingsPath}); err == nil {
		t.Error("missing -users accepted")
	}
	// Members are trimmed and deduplicated, as a served GroupQuery's are.
	if err := cmdMR([]string{"-ratings", ratingsPath, "-users", "patient0000, patient0000,patient0001 ,", "-z", "4"}); err != nil {
		t.Errorf("cmdMR with a repeated member: %v", err)
	}
	// A member with no rating in the CSV is refused by name, not dropped.
	err := cmdMR([]string{"-ratings", ratingsPath, "-users", "patient0000,ghost", "-z", "4"})
	if !errors.Is(err, fairhealth.ErrUnknownPatient) || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("cmdMR with an unknown member: err = %v, want ErrUnknownPatient naming ghost", err)
	}
}

func TestCmdTable2Quick(t *testing.T) {
	if err := cmdTable2([]string{"-quick", "-reps", "1"}); err != nil {
		t.Errorf("cmdTable2: %v", err)
	}
	if err := cmdTable2([]string{"-quick", "-reps", "1", "-csv"}); err != nil {
		t.Errorf("cmdTable2 csv: %v", err)
	}
}

func TestCmdAblation(t *testing.T) {
	if err := cmdAblation([]string{"-m", "15", "-z", "5"}); err != nil {
		t.Errorf("cmdAblation: %v", err)
	}
}

func TestCmdTableI(t *testing.T) {
	if err := cmdTableI(nil); err != nil {
		t.Errorf("cmdTableI: %v", err)
	}
}

func TestCmdEvaluate(t *testing.T) {
	ratingsPath, _ := genTestData(t)
	if err := cmdEvaluate([]string{"-ratings", ratingsPath, "-k", "5"}); err != nil {
		t.Errorf("cmdEvaluate: %v", err)
	}
}

func TestCmdSweep(t *testing.T) {
	ratingsPath, _ := genTestData(t)
	if err := cmdSweep([]string{"-ratings", ratingsPath, "-k", "5"}); err != nil {
		t.Errorf("cmdSweep: %v", err)
	}
}

func TestCmdClustering(t *testing.T) {
	ratingsPath, _ := genTestData(t)
	if err := cmdClustering([]string{"-ratings", ratingsPath, "-k", "3"}); err != nil {
		t.Errorf("cmdClustering: %v", err)
	}
	if err := cmdClustering([]string{"-ratings", ratingsPath, "-k", "three"}); err == nil {
		t.Error("bad -k accepted")
	}
}

// TestCmdGroupScorers drives the -scorer flag end to end: each
// registered backend serves, and an unknown one is rejected.
func TestCmdGroupScorers(t *testing.T) {
	ratingsPath, profilesPath := genTestData(t)
	users := "patient0000,patient0001,patient0002"
	for _, scorer := range scoring.Names() {
		if err := cmdGroup([]string{
			"-ratings", ratingsPath, "-profiles", profilesPath,
			"-users", users, "-z", "4", "-delta", "0.3", "-scorer", scorer,
		}); err != nil {
			t.Errorf("cmdGroup -scorer %s: %v", scorer, err)
		}
	}
	if err := cmdGroup([]string{"-ratings", ratingsPath, "-users", users, "-scorer", "psychic"}); err == nil {
		t.Error("unknown scorer accepted")
	}
}

func TestCmdBatchScorer(t *testing.T) {
	ratingsPath, _ := genTestData(t)
	groups := "patient0000,patient0001;patient0002,patient0003"
	if err := cmdBatch([]string{"-ratings", ratingsPath, "-groups", groups, "-z", "4", "-scorer", "item-cf"}); err != nil {
		t.Errorf("cmdBatch -scorer item-cf: %v", err)
	}
	if err := cmdBatch([]string{"-ratings", ratingsPath, "-groups", groups, "-scorer", "psychic"}); err == nil {
		t.Error("unknown scorer accepted in batch")
	}
}

func TestCmdProfileScorerRequiresProfiles(t *testing.T) {
	ratingsPath, _ := genTestData(t)
	if err := cmdGroup([]string{"-ratings", ratingsPath, "-users", "patient0000,patient0001", "-scorer", "profile"}); err == nil {
		t.Error("profile scorer without -profiles accepted")
	}
	if err := cmdBatch([]string{"-ratings", ratingsPath, "-groups", "patient0000,patient0001", "-scorer", "profile"}); err == nil {
		t.Error("batch profile scorer without -profiles accepted")
	}
}

func TestCmdGroupTopzHonorsScorer(t *testing.T) {
	ratingsPath, _ := genTestData(t)
	users := "patient0000,patient0001"
	if err := cmdGroup([]string{"-ratings", ratingsPath, "-users", users, "-method", "topz", "-scorer", "item-cf", "-z", "3"}); err != nil {
		t.Errorf("topz with item-cf: %v", err)
	}
	if err := cmdGroup([]string{"-ratings", ratingsPath, "-users", users, "-method", "topz", "-scorer", "psychic"}); err == nil {
		t.Error("topz with unknown scorer accepted")
	}
}
