package main

import (
	"math/rand"
	"time"
)

// probe is a fixed piece of work that touches nothing of the system
// under test: a dependent pointer chase through 32 MB (every load a
// cache miss) with integer arithmetic on the way. This box slows down
// as a whole by up to 1.6× for minutes at a time (a shared host); the
// probe, run between phases while the servers idle, is how a reader
// tells a disturbed run from a regression.
type probe struct {
	next []uint32
}

const (
	probeSlots = 8 << 20 // × 4 bytes
	probeSteps = 1 << 21
)

func newProbe() *probe {
	// One cycle through every slot, in a fixed pseudo-random order.
	perm := rand.New(rand.NewSource(1)).Perm(probeSlots)
	p := &probe{next: make([]uint32, probeSlots)}
	for i, slot := range perm {
		p.next[slot] = uint32(perm[(i+1)%probeSlots])
	}
	return p
}

// run does the work once and returns how long it took, in ms.
func (p *probe) run() float64 {
	start := time.Now()
	at, sum := uint32(0), uint64(0)
	for i := 0; i < probeSteps; i++ {
		at = p.next[at]
		sum = sum*6364136223846793005 + uint64(at)
	}
	took := time.Since(start)
	if sum == 0 { // keeps the loop's result live
		took++
	}
	return float64(took.Nanoseconds()) / 1e6
}
