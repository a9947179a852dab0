// Command fairrec is the command-line face of the fairness-aware group
// recommender. Subcommands:
//
//	gen        generate a synthetic health dataset (ratings CSV + profiles JSON)
//	recommend  personal top-k recommendations for one user
//	group      fairness-aware group recommendations (greedy, brute force, or plain top-z)
//	batch      fair recommendations for many groups over a bounded worker pool
//	mr         run the §IV MapReduce pipeline end to end
//	table2     regenerate the paper's Table II (brute force vs heuristic)
//	ablation   aggregator ablation (min vs avg vs max)
//	tablei     the paper's Table I semantic-similarity walkthrough
//
// Run `fairrec <subcommand> -h` for flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"fairhealth"
	"fairhealth/internal/dataset"
	"fairhealth/internal/eval"
	"fairhealth/internal/metrics"
	"fairhealth/internal/model"
	"fairhealth/internal/mrpipeline"
	"fairhealth/internal/phr"
	"fairhealth/internal/ratings"
	"fairhealth/internal/snomed"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "recommend":
		err = cmdRecommend(os.Args[2:])
	case "group":
		err = cmdGroup(os.Args[2:])
	case "batch":
		err = cmdBatch(os.Args[2:])
	case "mr":
		err = cmdMR(os.Args[2:])
	case "table2":
		err = cmdTable2(os.Args[2:])
	case "ablation":
		err = cmdAblation(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "clustering":
		err = cmdClustering(os.Args[2:])
	case "evaluate":
		err = cmdEvaluate(os.Args[2:])
	case "tablei":
		err = cmdTableI(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "fairrec: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fairrec: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `fairrec — fairness-aware group recommendations in the health domain

Usage:
  fairrec gen       -seed 1 -users 100 -items 200 -out data/           generate dataset
  fairrec recommend -ratings data/ratings.csv -user patient0001 -k 10  personal top-k
  fairrec group     -ratings data/ratings.csv -users a,b,c -z 10       fair group top-z
                    [-scorer user-cf|item-cf|profile]                  pick the relevance backend
  fairrec batch     -ratings data/ratings.csv -groups "a,b;c,d" -z 10  many groups in parallel
                    [-stream] [-scorer s]                              print entries as they complete
  fairrec mr        -ratings data/ratings.csv -users a,b,c -z 10       MapReduce pipeline
  fairrec table2    [-quick]                                           reproduce Table II
  fairrec ablation                                                     aggregator ablation
  fairrec sweep     -ratings data/ratings.csv                          δ threshold sweep
  fairrec clustering -ratings data/ratings.csv -k 3,5                  clustered peers ablation
  fairrec evaluate  -ratings data/ratings.csv                          holdout accuracy metrics
  fairrec tablei                                                       Table I walkthrough
`)
}

// loadSystem builds a System from a ratings CSV (and optional profiles
// JSON).
func loadSystem(ratingsPath, profilesPath string, cfg fairhealth.Config) (*fairhealth.System, error) {
	sys, err := fairhealth.New(cfg)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(ratingsPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := sys.LoadRatingsCSV(f); err != nil {
		return nil, err
	}
	if profilesPath != "" {
		pf, err := os.Open(profilesPath)
		if err != nil {
			return nil, err
		}
		defer pf.Close()
		store, err := phr.ReadJSON(pf, snomed.Load())
		if err != nil {
			return nil, err
		}
		for _, id := range store.IDs() {
			prof, err := store.Get(id)
			if err != nil {
				return nil, err
			}
			problems := make([]string, len(prof.Problems))
			for k, c := range prof.Problems {
				problems[k] = string(c)
			}
			err = sys.AddPatient(fairhealth.Patient{
				ID: string(prof.ID), Age: prof.Age, Gender: string(prof.Gender),
				Problems: problems, Medications: prof.Medications,
				Procedures: prof.Procedures, Allergies: prof.Allergies, Notes: prof.Notes,
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return sys, nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "random seed")
	users := fs.Int("users", 100, "number of patients")
	items := fs.Int("items", 200, "number of documents")
	perUser := fs.Int("ratings-per-user", 20, "ratings per patient")
	clusters := fs.Int("clusters", 4, "latent preference clusters")
	out := fs.String("out", "data", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds, err := dataset.Generate(dataset.Config{
		Seed: *seed, Users: *users, Items: *items,
		RatingsPerUser: *perUser, Clusters: *clusters,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	rf, err := os.Create(*out + "/ratings.csv")
	if err != nil {
		return err
	}
	defer rf.Close()
	if err := ds.Ratings.WriteCSV(rf); err != nil {
		return err
	}
	pf, err := os.Create(*out + "/profiles.json")
	if err != nil {
		return err
	}
	defer pf.Close()
	if err := ds.Profiles.WriteJSON(pf); err != nil {
		return err
	}
	fmt.Printf("generated %d patients, %d documents, %d ratings (sparsity %.1f%%)\n",
		ds.Profiles.Len(), len(ds.Documents), ds.Ratings.Len(), 100*ds.Ratings.Sparsity())
	fmt.Printf("wrote %s/ratings.csv and %s/profiles.json\n", *out, *out)
	return nil
}

func cmdRecommend(args []string) error {
	fs := flag.NewFlagSet("recommend", flag.ExitOnError)
	ratingsPath := fs.String("ratings", "data/ratings.csv", "ratings CSV")
	profiles := fs.String("profiles", "", "profiles JSON (optional)")
	user := fs.String("user", "", "user to recommend for")
	k := fs.Int("k", 10, "list size")
	delta := fs.Float64("delta", 0.5, "peer threshold δ")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *user == "" {
		return fmt.Errorf("-user is required")
	}
	sys, err := loadSystem(*ratingsPath, *profiles, fairhealth.Config{Delta: *delta, K: *k})
	if err != nil {
		return err
	}
	recs, err := sys.Recommend(*user, *k)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		fmt.Printf("no recommendations for %s (no peers above δ=%.2f)\n", *user, *delta)
		return nil
	}
	fmt.Printf("top-%d recommendations for %s:\n", len(recs), *user)
	for i, r := range recs {
		fmt.Printf("%2d. %-12s %.3f\n", i+1, r.Item, r.Score)
	}
	return nil
}

func cmdGroup(args []string) error {
	fs := flag.NewFlagSet("group", flag.ExitOnError)
	ratingsPath := fs.String("ratings", "data/ratings.csv", "ratings CSV")
	profiles := fs.String("profiles", "", "profiles JSON (optional)")
	users := fs.String("users", "", "comma-separated group members")
	z := fs.Int("z", 10, "recommendations to return")
	k := fs.Int("k", 10, "per-member personal list size (fairness)")
	delta := fs.Float64("delta", 0.5, "peer threshold δ")
	aggr := fs.String("aggr", "avg", "aggregation: avg (majority), min (veto), max, median or consensus")
	method := fs.String("method", "greedy", "greedy | brute | topz (for the §IV MapReduce pipeline run 'fairrec mr')")
	scorer := fs.String("scorer", "", "relevance scorer: user-cf (default) | item-cf | profile")
	m := fs.Int("m", 20, "candidate pool for brute force")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *users == "" {
		return fmt.Errorf("-users is required")
	}
	if *scorer == "profile" && *profiles == "" {
		// Without a corpus the profile scorer finds no peers and would
		// quietly print an empty selection.
		return fmt.Errorf("-scorer profile requires -profiles (the cosine corpus is built from patient profiles)")
	}
	// The scorer is also the system default so the topz branch — which
	// serves through GroupTopZ, not a GroupQuery — honors it too.
	sys, err := loadSystem(*ratingsPath, *profiles, fairhealth.Config{
		Delta: *delta, K: *k, Aggregation: *aggr, Scorer: *scorer,
	})
	if err != nil {
		return err
	}
	members := strings.Split(*users, ",")
	// topz is the fairness-agnostic baseline and stays a separate
	// call; everything else is one GroupQuery against Serve.
	if *method == "topz" {
		recs, err := sys.GroupTopZ(members, *z)
		if err != nil {
			return err
		}
		fmt.Printf("plain top-%d (no fairness):\n", len(recs))
		for i, r := range recs {
			fmt.Printf("%2d. %-12s %.3f\n", i+1, r.Item, r.Score)
		}
		return nil
	}
	res, err := sys.Serve(context.Background(), fairhealth.GroupQuery{
		Members: members,
		Z:       *z,
		Method:  fairhealth.Method(*method),
		BruteM:  *m,
		Scorer:  *scorer,
	})
	if err != nil {
		return err
	}
	label := "Algorithm 1 (greedy)"
	if fairhealth.Method(*method) == fairhealth.MethodBrute {
		label = fmt.Sprintf("brute force (%d combinations)", res.Combinations)
	}
	printGroupResult(res, label)
	return nil
}

func cmdBatch(args []string) error {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	ratingsPath := fs.String("ratings", "data/ratings.csv", "ratings CSV")
	profiles := fs.String("profiles", "", "profiles JSON (optional)")
	groupsArg := fs.String("groups", "", `semicolon-separated groups of comma-separated members, e.g. "a,b;c,d,e"`)
	groupsFile := fs.String("groups-file", "", "file with one comma-separated group per line (overrides -groups)")
	z := fs.Int("z", 10, "recommendations per group")
	k := fs.Int("k", 10, "per-member personal list size (fairness)")
	delta := fs.Float64("delta", 0.5, "peer threshold δ")
	aggr := fs.String("aggr", "avg", "aggregation: avg (majority), min (veto), max, median or consensus")
	method := fs.String("method", "greedy", "solver for every group: greedy | brute (for the §IV MapReduce pipeline run 'fairrec mr')")
	scorer := fs.String("scorer", "", "relevance scorer for every group: user-cf (default) | item-cf | profile")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	stream := fs.Bool("stream", false, "print each group as it completes (completion order) instead of buffering the batch")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var lines []string
	if *groupsFile != "" {
		raw, err := os.ReadFile(*groupsFile)
		if err != nil {
			return err
		}
		lines = strings.Split(string(raw), "\n")
	} else if *groupsArg != "" {
		lines = strings.Split(*groupsArg, ";")
	} else {
		return fmt.Errorf("-groups or -groups-file is required")
	}
	var groups [][]string
	for _, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var members []string
		for _, m := range strings.Split(line, ",") {
			if m = strings.TrimSpace(m); m != "" {
				members = append(members, m)
			}
		}
		if len(members) > 0 {
			groups = append(groups, members)
		}
	}
	if len(groups) == 0 {
		return fmt.Errorf("no groups given")
	}
	if *scorer == "profile" && *profiles == "" {
		return fmt.Errorf("-scorer profile requires -profiles (the cosine corpus is built from patient profiles)")
	}
	sys, err := loadSystem(*ratingsPath, *profiles, fairhealth.Config{
		Delta: *delta, K: *k, Aggregation: *aggr, Workers: *workers,
	})
	if err != nil {
		return err
	}
	queries := make([]fairhealth.GroupQuery, len(groups))
	for i, g := range groups {
		queries[i] = fairhealth.GroupQuery{Members: g, Z: *z, Method: fairhealth.Method(*method), Scorer: *scorer}
	}
	failed := 0
	printEntry := func(br fairhealth.BatchGroupResult) {
		if br.Err != nil {
			failed++
			fmt.Printf("group %d [%s]: error: %v\n", br.Index, strings.Join(br.Group, ","), br.Err)
			return
		}
		fmt.Printf("group %d [%s]: fairness %.2f, value %.3f\n", br.Index, strings.Join(br.Group, ","), br.Result.Fairness, br.Result.Value)
		for i, r := range br.Result.Items {
			fmt.Printf("  %2d. %-12s %.3f\n", i+1, r.Item, r.Score)
		}
	}
	if *stream {
		// Entries print as they complete, in completion order.
		err := sys.ServeStream(context.Background(), queries, func(br fairhealth.BatchGroupResult) error {
			printEntry(br)
			return nil
		})
		if err != nil {
			return err
		}
	} else {
		results, err := sys.ServeBatch(context.Background(), queries)
		if err != nil {
			return err
		}
		for _, br := range results {
			printEntry(br)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d groups failed", failed, len(groups))
	}
	return nil
}

func printGroupResult(res *fairhealth.GroupResult, label string) {
	fmt.Printf("%s — fairness %.3f, value %.3f\n", label, res.Fairness, res.Value)
	for i, r := range res.Items {
		fmt.Printf("%2d. %-12s group score %.3f\n", i+1, r.Item, r.Score)
	}
}

func cmdMR(args []string) error {
	fs := flag.NewFlagSet("mr", flag.ExitOnError)
	ratingsPath := fs.String("ratings", "data/ratings.csv", "ratings CSV")
	users := fs.String("users", "", "comma-separated group members")
	z := fs.Int("z", 10, "recommendations to return")
	k := fs.Int("k", 10, "per-member personal list size")
	delta := fs.Float64("delta", 0.5, "peer threshold δ")
	aggr := fs.String("aggr", "avg", "aggregation: avg or min")
	workers := fs.Int("workers", 0, "mapper/reducer workers (0 = NumCPU)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *users == "" {
		return fmt.Errorf("-users is required")
	}
	f, err := os.Open(*ratingsPath)
	if err != nil {
		return err
	}
	defer f.Close()
	store, err := ratings.ReadCSV(f)
	if err != nil {
		return err
	}
	// Members are trimmed and deduplicated like a served GroupQuery's,
	// and every one must have rated something: the pipeline would
	// otherwise drop an unknown member without a word.
	var g model.Group
	for _, u := range strings.Split(*users, ",") {
		if u = strings.TrimSpace(u); u != "" {
			g = append(g, model.UserID(u))
		}
	}
	g = g.Dedup()
	for _, u := range g {
		if store.NumRatedBy(u) == 0 {
			return fmt.Errorf("%w: %s has no rating in %s", fairhealth.ErrUnknownPatient, u, *ratingsPath)
		}
	}
	out, err := mrpipeline.Run(context.Background(), store.Triples(), mrpipeline.Config{
		Group: g, Delta: *delta, MinOverlap: 2, K: *k, Z: *z,
		Aggregator: *aggr, Mappers: *workers, Reducers: *workers,
	})
	if err != nil {
		return err
	}
	fmt.Printf("MapReduce pipeline over %d triples\n", store.Len())
	for _, job := range []string{"means", "job1", "job2", "job3", "topk"} {
		st := out.Stats[job]
		fmt.Printf("  %-5s  map in/out %6d/%6d  shuffle %6d  reduce keys %6d\n",
			job, st.MapInputs, st.MapOutputs, st.ShufflePairs, st.ReduceKeys)
	}
	fmt.Printf("candidates: %d  defined group scores: %d\n", len(out.Candidates), len(out.GroupRel))
	fmt.Printf("Algorithm 1 — fairness %.3f, value %.3f\n", out.Fair.Fairness, out.Fair.Value)
	for i, item := range out.Fair.Items {
		fmt.Printf("%2d. %-12s group score %.3f\n", i+1, item, out.GroupRel[item])
	}
	return nil
}

func cmdTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	quick := fs.Bool("quick", false, "small grid (fast smoke run)")
	full := fs.Bool("full", false, "include the slowest cells (C(30,12..16); minutes of CPU)")
	csv := fs.Bool("csv", false, "emit CSV instead of markdown")
	seed := fs.Int64("seed", 1, "instance seed")
	groupSize := fs.Int("group", 4, "group size |G|")
	reps := fs.Int("reps", 3, "repetitions per cell (min time reported)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := eval.Table2Config{Seed: *seed, GroupSize: *groupSize, Repetitions: *reps}
	switch {
	case *quick:
		cfg.Ms = []int{10, 15}
		cfg.Zs = []int{4, 8}
	case *full:
		cfg.Ms = []int{10, 20, 30}
		cfg.Zs = []int{4, 8, 12, 16, 20}
	default:
		cfg.Ms = []int{10, 20, 30}
		cfg.Zs = []int{4, 8, 12, 16, 20}
		cfg.MaxCombinations = 40_000_000 // skip the multi-minute cells
	}
	rows, err := eval.RunTable2(cfg)
	if err != nil {
		return err
	}
	if *csv {
		if err := eval.WriteCSV(os.Stdout, rows); err != nil {
			return err
		}
	} else {
		if err := eval.WriteMarkdown(os.Stdout, rows); err != nil {
			return err
		}
	}
	if err := eval.CheckProposition1(rows, *groupSize); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "\nProposition 1 verified: both methods reach fairness 1 on every row with z ≥ |G|.")
	return nil
}

func cmdAblation(args []string) error {
	fs := flag.NewFlagSet("ablation", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "instance seed")
	n := fs.Int("group", 4, "group size")
	m := fs.Int("m", 30, "candidate pool")
	k := fs.Int("k", 10, "personal list size")
	z := fs.Int("z", 8, "recommendations")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := eval.RunAggregatorAblation(*seed, *n, *m, *k, *z)
	if err != nil {
		return err
	}
	fmt.Println("| aggregator | fairness | Σ relevance | value |")
	fmt.Println("|------------|----------|-------------|-------|")
	for _, r := range rows {
		fmt.Printf("| %-10s | %.3f | %.3f | %.3f |\n", r.Aggregator, r.Fairness, r.SumRel, r.Value)
	}
	return nil
}

func loadRatingsOnly(path string) (*ratings.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ratings.ReadCSV(f)
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	ratingsPath := fs.String("ratings", "data/ratings.csv", "ratings CSV")
	minOverlap := fs.Int("min-overlap", 3, "minimum co-rated items")
	k := fs.Int("k", 10, "ranking metric cutoff")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := loadRatingsOnly(*ratingsPath)
	if err != nil {
		return err
	}
	rows, err := eval.RunDeltaSweep(store,
		[]float64{0.5, 0.6, 0.7, 0.8, 0.9}, *minOverlap,
		metrics.HoldoutConfig{Seed: 1, K: *k}, 20)
	if err != nil {
		return err
	}
	return eval.WriteDeltaSweep(os.Stdout, rows)
}

func cmdClustering(args []string) error {
	fs := flag.NewFlagSet("clustering", flag.ExitOnError)
	ratingsPath := fs.String("ratings", "data/ratings.csv", "ratings CSV")
	ks := fs.String("k", "3,6", "comma-separated cluster counts")
	delta := fs.Float64("delta", 0.55, "peer threshold δ")
	minOverlap := fs.Int("min-overlap", 3, "minimum co-rated items")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := loadRatingsOnly(*ratingsPath)
	if err != nil {
		return err
	}
	var kList []int
	for _, s := range strings.Split(*ks, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &v); err != nil {
			return fmt.Errorf("bad -k element %q: %w", s, err)
		}
		kList = append(kList, v)
	}
	rows, err := eval.RunClusteringAblation(store, kList, *delta, *minOverlap,
		metrics.HoldoutConfig{Seed: 1, K: 10}, 15)
	if err != nil {
		return err
	}
	return eval.WriteClusteringAblation(os.Stdout, rows)
}

func cmdEvaluate(args []string) error {
	fs := flag.NewFlagSet("evaluate", flag.ExitOnError)
	ratingsPath := fs.String("ratings", "data/ratings.csv", "ratings CSV")
	delta := fs.Float64("delta", 0.55, "peer threshold δ")
	minOverlap := fs.Int("min-overlap", 3, "minimum co-rated items")
	k := fs.Int("k", 10, "ranking cutoff")
	testFrac := fs.Float64("test-fraction", 0.2, "withheld fraction per user")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := loadRatingsOnly(*ratingsPath)
	if err != nil {
		return err
	}
	rep, err := metrics.EvaluateHoldout(store, metrics.CFFactory(*delta, *minOverlap),
		metrics.HoldoutConfig{Seed: 1, K: *k, TestFraction: *testFrac})
	if err != nil {
		return err
	}
	fmt.Printf("holdout evaluation (δ=%.2f, min-overlap=%d, %d train / %d test ratings)\n",
		*delta, *minOverlap, rep.TrainRatings, rep.TestRatings)
	fmt.Printf("  RMSE                %.4f\n", rep.RMSE)
	fmt.Printf("  MAE                 %.4f\n", rep.MAE)
	fmt.Printf("  prediction coverage %.4f\n", rep.PredictionCoverage)
	fmt.Printf("  precision@%-2d       %.4f\n", *k, rep.PrecisionAtK)
	fmt.Printf("  recall@%-2d          %.4f\n", *k, rep.RecallAtK)
	fmt.Printf("  F1@%-2d              %.4f\n", *k, rep.F1AtK)
	fmt.Printf("  nDCG@%-2d            %.4f\n", *k, rep.NDCGAtK)
	fmt.Printf("  catalog coverage    %.4f\n", rep.CatalogCoverage)
	fmt.Printf("  users evaluated     %d\n", rep.UsersEvaluated)
	return nil
}

func cmdTableI(args []string) error {
	fs := flag.NewFlagSet("tablei", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ont := snomed.Load()
	patients := phr.TableIPatients()
	fmt.Println("Table I patients (paper §V.C):")
	for _, p := range patients {
		var names []string
		for _, c := range p.Problems {
			concept, _ := ont.Concept(c)
			names = append(names, concept.Name)
		}
		fmt.Printf("  %-9s age %2d %-6s problems: %s\n", p.ID, p.Age, p.Gender, strings.Join(names, ", "))
	}
	d12, err := ont.PathLength(snomed.AcuteBronchitis, snomed.ChestPain)
	if err != nil {
		return err
	}
	d13, err := ont.PathLength(snomed.Tracheobronchitis, snomed.AcuteBronchitis)
	if err != nil {
		return err
	}
	fmt.Printf("\nshortest path (acute bronchitis ↔ chest pain)        = %d (paper: 5)\n", d12)
	fmt.Printf("shortest path (tracheobronchitis ↔ acute bronchitis) = %d (paper: 2)\n", d13)
	s12, _, err := ont.SetSimilarity(patients[0].Problems, patients[1].Problems)
	if err != nil {
		return err
	}
	s13, _, err := ont.SetSimilarity(patients[0].Problems, patients[2].Problems)
	if err != nil {
		return err
	}
	fmt.Printf("\nsemantic similarity SS(P1,P2) = %.4f\n", s12)
	fmt.Printf("semantic similarity SS(P1,P3) = %.4f\n", s13)
	fmt.Printf("SS(P1,P3) > SS(P1,P2): %v (paper: true)\n", s13 > s12)
	return nil
}
