package main

// The in-process oracle: a fairhealth.System loaded from the same
// dataset.Generate output the servers load with -demo, so a correct
// server's answers equal the oracle's bit-for-bit.

import (
	"context"
	"fmt"

	"fairhealth"
	"fairhealth/internal/dataset"
)

// ingester is the write surface every engine shares (System,
// partition.Coordinator, partition.Networked).
type ingester interface {
	AddRating(user, item string, value float64) error
	AddPatient(p fairhealth.Patient) error
	AddDocument(id, title, body string) error
}

func generateCorpus() (*dataset.Dataset, corpus, error) {
	ds, err := dataset.Generate(dataset.Config{Seed: corpusSeed, Users: corpusUsers, Items: corpusItems, RatingsPerUser: corpusPerUser})
	if err != nil {
		return nil, corpus{}, err
	}
	var c corpus
	for _, id := range ds.Profiles.IDs() {
		c.users = append(c.users, string(id))
	}
	for _, d := range ds.Documents {
		c.items = append(c.items, string(d.ID))
	}
	return ds, c, nil
}

// loadCorpus feeds ds into b in the order cmd/iphrd's -demo loader
// uses: ratings, then patients, then documents.
func loadCorpus(b ingester, ds *dataset.Dataset) error {
	for _, tr := range ds.Ratings.Triples() {
		if err := b.AddRating(string(tr.User), string(tr.Item), float64(tr.Value)); err != nil {
			return fmt.Errorf("corpus rating: %w", err)
		}
	}
	for _, id := range ds.Profiles.IDs() {
		prof, err := ds.Profiles.Get(id)
		if err != nil {
			return fmt.Errorf("corpus profile: %w", err)
		}
		problems := make([]string, len(prof.Problems))
		for i, c := range prof.Problems {
			problems[i] = string(c)
		}
		err = b.AddPatient(fairhealth.Patient{
			ID: string(prof.ID), Age: prof.Age, Gender: string(prof.Gender),
			Problems: problems, Medications: prof.Medications,
		})
		if err != nil {
			return fmt.Errorf("corpus patient: %w", err)
		}
	}
	for _, d := range ds.Documents {
		if err := b.AddDocument(string(d.ID), d.Title, d.Body); err != nil {
			return fmt.Errorf("corpus document: %w", err)
		}
	}
	return nil
}

func newLoadedSystem(ds *dataset.Dataset) (*fairhealth.System, error) {
	sys, err := fairhealth.New(fairhealth.Config{})
	if err != nil {
		return nil, err
	}
	if err := loadCorpus(sys, ds); err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

// groupQuery is the library form of a stream query, with the defaults
// the HTTP layer would apply to the same body.
func groupQuery(q query) fairhealth.GroupQuery {
	return fairhealth.GroupQuery{Members: q.members, Z: listZ, Scorer: q.scorer}
}

// oracleAnswers serves every query on sys (through the batch path, so
// both cores work) and returns the answers in order.
func oracleAnswers(ctx context.Context, sys *fairhealth.System, qs []query) ([]answer, error) {
	gq := make([]fairhealth.GroupQuery, len(qs))
	for i, q := range qs {
		gq[i] = groupQuery(q)
	}
	res, err := sys.ServeBatch(ctx, gq)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	out := make([]answer, len(res))
	for i, r := range res {
		if r.Err != nil {
			return nil, fmt.Errorf("oracle query %d: %w", i, r.Err)
		}
		out[i] = answerOf(r.Result)
	}
	return out, nil
}
