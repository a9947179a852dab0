// Similarity walkthrough: the three user-similarity measures of §V
// evaluated side by side on the paper's Table I patients, plus a
// hybrid of all three.
//
//   - RS: Pearson correlation over co-rated documents (Eq. 2)
//   - CS: cosine over TF-IDF vectors of rendered profiles (Def. 4 + Eq. 3)
//   - SS: ontology path similarity of coded problems, harmonic mean (Eq. 4)
//
// Run: go run ./examples/similarity
package main

import (
	"context"
	"fmt"
	"log"

	"fairhealth"
	"fairhealth/internal/model"
	"fairhealth/internal/phr"
	"fairhealth/internal/ratings"
	"fairhealth/internal/simfn"
	"fairhealth/internal/snomed"
)

func main() {
	ont := snomed.Load()
	profiles := phr.NewStore(ont)
	for _, p := range phr.TableIPatients() {
		if err := profiles.Put(p); err != nil {
			log.Fatal(err)
		}
	}

	// Give the three patients a plausible rating history: patients 1
	// and 3 (both bronchitis) like the same respiratory-care documents,
	// patient 2 (chest pain) prefers cardiac content.
	history := []struct {
		u, d string
		v    float64
	}{
		{"patient1", "breathing-exercises", 5}, {"patient1", "cough-remedies", 4}, {"patient1", "heart-health", 2},
		{"patient3", "breathing-exercises", 5}, {"patient3", "cough-remedies", 5}, {"patient3", "heart-health", 1},
		{"patient2", "breathing-exercises", 2}, {"patient2", "cough-remedies", 1}, {"patient2", "heart-health", 5},
		// documents only the peers have seen, so Eq. 1 has something
		// to predict in the group demo at the end
		{"patient3", "steam-inhalation", 4}, {"patient2", "cardio-diet", 5},
	}
	store := ratings.New()
	for _, r := range history {
		if err := store.Add(model.UserID(r.u), model.ItemID(r.d), model.Rating(r.v)); err != nil {
			log.Fatal(err)
		}
	}

	rs := simfn.Normalized{S: simfn.Pearson{Store: store, MinOverlap: 2}}
	cs, err := simfn.BuildProfileCosine(profiles, ont, nil)
	if err != nil {
		log.Fatal(err)
	}
	ss := simfn.Semantic{Ont: ont, Problems: profiles.Problems}
	hybrid := simfn.Weighted{Components: []simfn.Component{
		{S: rs, Weight: 1}, {S: cs, Weight: 1}, {S: ss, Weight: 1},
	}}

	measures := []struct {
		name string
		sim  simfn.UserSimilarity
	}{
		{"RS ratings (Eq. 2, normalized)", rs},
		{"CS profile TF-IDF (Eq. 3)", cs},
		{"SS semantic (Eq. 4)", ss},
		{"hybrid (equal weights)", hybrid},
	}
	pairs := [][2]model.UserID{
		{"patient1", "patient2"},
		{"patient1", "patient3"},
		{"patient2", "patient3"},
	}

	fmt.Println("Table I patients:")
	for _, p := range phr.TableIPatients() {
		var names []string
		for _, c := range p.Problems {
			concept, _ := ont.Concept(c)
			names = append(names, concept.Name)
		}
		fmt.Printf("  %-9s %2d %-7s %v  meds: %v\n", p.ID, p.Age, p.Gender, names, p.Medications)
	}

	fmt.Printf("\n%-34s", "measure")
	for _, pr := range pairs {
		fmt.Printf(" %9s", fmt.Sprintf("%s,%s", pr[0][len(pr[0])-1:], pr[1][len(pr[1])-1:]))
	}
	fmt.Println()
	for _, m := range measures {
		fmt.Printf("%-34s", m.name)
		for _, pr := range pairs {
			if s, ok := m.sim.Similarity(pr[0], pr[1]); ok {
				fmt.Printf(" %9.4f", s)
			} else {
				fmt.Printf(" %9s", "undef")
			}
		}
		fmt.Println()
	}

	d, err := ont.PathLength(snomed.AcuteBronchitis, snomed.ChestPain)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nontology check: dist(acute bronchitis, chest pain) = %d (paper: 5)\n", d)
	d, err = ont.PathLength(snomed.Tracheobronchitis, snomed.AcuteBronchitis)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ontology check: dist(tracheobronchitis, acute bronchitis) = %d (paper: 2)\n", d)
	fmt.Println("\nevery measure ranks (patient1, patient3) above (patient1, patient2),")
	fmt.Println("matching the paper's §V.C conclusion.")

	// ---- the measures at work: one GroupQuery over a hybrid system --------
	// The same profiles and ratings feed a System whose default scorer
	// is the hybrid measure, and the unified API serves a fair group
	// recommendation for a caregiver responsible for patients 1 and 2
	// (patient 3 acts as the outside peer whose ratings drive Eq. 1).
	// δ is far below the paper's operating point because the toy
	// corpus has three patients: hybrid scores against the one
	// genuinely dissimilar patient sit under 0.1 (see the table).
	sys, err := fairhealth.New(fairhealth.Config{
		Scorer: "hybrid",
		Delta:  0.05, MinOverlap: 2, K: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range phr.TableIPatients() {
		problems := make([]string, len(p.Problems))
		for i, c := range p.Problems {
			problems[i] = string(c)
		}
		if err := sys.AddPatient(fairhealth.Patient{
			ID: string(p.ID), Age: p.Age, Gender: string(p.Gender), Problems: problems,
		}); err != nil {
			log.Fatal(err)
		}
	}
	for _, r := range history {
		if err := sys.AddRating(r.u, r.d, r.v); err != nil {
			log.Fatal(err)
		}
	}
	res, err := sys.Serve(context.Background(), fairhealth.GroupQuery{
		Members: []string{"patient1", "patient2"},
		Z:       2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfair top-2 for patients 1+2 under the hybrid measure (fairness %.2f):\n", res.Fairness)
	for i, it := range res.Items {
		fmt.Printf("%2d. %-18s group score %.3f\n", i+1, it.Item, it.Score)
	}
}
