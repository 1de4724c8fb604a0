package admission

import (
	"time"
)

// bucket is a token bucket: capacity `burst` tokens refilled at `rate`
// tokens/second. It is not self-locking; the Controller serializes access.
type bucket struct {
	rate   float64 // tokens per second
	burst  float64 // capacity
	tokens float64
	last   time.Time
}

// newBucket starts full, so a fresh server absorbs an initial burst.
func newBucket(rate, burst float64, now time.Time) *bucket {
	return &bucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// take refills by elapsed time and consumes one token. When empty it reports
// how long until the next token accrues — the Retry-After hint.
func (b *bucket) take(now time.Time) (ok bool, retryAfter time.Duration) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / b.rate
	return false, time.Duration(need * float64(time.Second))
}
