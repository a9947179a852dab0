package httpapi

// The in-flight limiter: a fixed admission bound. A request arriving
// while MaxInFlight others are being served is answered 429/overloaded
// at once rather than queued, so overload degrades crisply instead of
// piling latency.

import "sync/atomic"

// limiter admits up to max concurrent requests. acquire and release
// are lock-free.
type limiter struct {
	max      int64
	inflight atomic.Int64
	rejected atomic.Uint64
}

// newLimiter builds a limiter admitting max concurrent requests.
func newLimiter(max int) *limiter { return &limiter{max: int64(max)} }

// acquire claims an admission slot, reporting false (and counting the
// rejection) when the server is at its limit.
func (l *limiter) acquire() bool {
	if l.inflight.Add(1) > l.max {
		l.inflight.Add(-1)
		l.rejected.Add(1)
		return false
	}
	return true
}

// release returns a slot.
func (l *limiter) release() { l.inflight.Add(-1) }

// snapshot reports the limiter's state for /v1/stats.
func (l *limiter) snapshot() *ServerStats {
	return &ServerStats{
		InFlight:      l.inflight.Load(),
		InFlightLimit: l.max,
		MaxInFlight:   l.max,
		Rejected:      l.rejected.Load(),
	}
}

// ServerStats is the "server" section of GET /v1/stats: the in-flight
// limiter's live state. Absent when the limiter is disabled
// (MaxInFlight < 0).
type ServerStats struct {
	// InFlight is the number of requests being served right now.
	InFlight int64 `json:"inflight"`
	// InFlightLimit is the admission bound, always MaxInFlight.
	InFlightLimit int64 `json:"inflight_limit"`
	// MaxInFlight is the configured bound.
	MaxInFlight int64 `json:"max_inflight"`
	// Rejected counts requests answered 429 since startup.
	Rejected uint64 `json:"rejected"`
}
