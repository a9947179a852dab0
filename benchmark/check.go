package main

// Answer checks. Every response is checked for shape; where an oracle
// answer exists the comparison is bit-for-bit — JSON carries float64s
// in their shortest round-tripping form, so a correct server's decoded
// answer equals the in-process oracle's exactly.

import (
	"fmt"
	"math"

	"fairhealth"
)

// answer is the part of a group recommendation the checks compare.
type answer struct {
	items    []fairhealth.Recommendation
	fairness float64
	value    float64
}

func answerOf(r *fairhealth.GroupResult) answer {
	return answer{items: r.Items, fairness: r.Fairness, value: r.Value}
}

// checkShape rejects an answer with more than z items, a repeated
// item, or a fairness outside [0,1] (NaN included).
func checkShape(a answer, z int) error {
	if len(a.items) > z {
		return fmt.Errorf("%d items for z=%d", len(a.items), z)
	}
	for i, it := range a.items {
		for _, prev := range a.items[:i] {
			if prev.Item == it.Item {
				return fmt.Errorf("item %s repeated", it.Item)
			}
		}
	}
	if !(a.fairness >= 0 && a.fairness <= 1) {
		return fmt.Errorf("fairness %v outside [0,1]", a.fairness)
	}
	return nil
}

// sameAnswer requires got to equal want bit-for-bit: items in order,
// every score, fairness and value.
func sameAnswer(got, want answer) error {
	if len(got.items) != len(want.items) {
		return fmt.Errorf("%d items, oracle has %d", len(got.items), len(want.items))
	}
	for i := range got.items {
		g, w := got.items[i], want.items[i]
		if g.Item != w.Item {
			return fmt.Errorf("item %d is %s, oracle has %s", i, g.Item, w.Item)
		}
		if math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("item %d (%s) score %v, oracle has %v", i, g.Item, g.Score, w.Score)
		}
	}
	if math.Float64bits(got.fairness) != math.Float64bits(want.fairness) {
		return fmt.Errorf("fairness %v, oracle has %v", got.fairness, want.fairness)
	}
	if math.Float64bits(got.value) != math.Float64bits(want.value) {
		return fmt.Errorf("value %v, oracle has %v", got.value, want.value)
	}
	return nil
}
