// Package splitmix is the repository's one splitmix64: a seeded,
// allocation-free, platform-identical random stream and its finalizer
// (Steele, Lea & Flood, "Fast splittable pseudorandom number generators",
// OOPSLA 2014). Every seeded draw in the repository — synthetic scheduling
// instances, arrival processes, fleet-simulation traces, trace IDs and
// hash-ring spreading — goes through it, so one seed gives one stream on
// every platform.
package splitmix

// Gamma is the stream increment (the golden-ratio "gamma" of the paper).
// Callers that keep their state elsewhere — e.g. in an atomic — add it
// themselves and finalize with Mix64.
const Gamma = 0x9e3779b97f4a7c15

// Mix64 is the splitmix64 finalizer: an avalanching bijection on uint64.
//
//dnnperf:allocfree
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream is a seeded splitmix64 generator. It is not safe for concurrent
// use; each goroutine takes its own.
type Stream struct{ s uint64 }

// New returns the stream with the given seed.
func New(seed uint64) Stream { return Stream{s: seed} }

// Next returns the next 64 random bits.
//
//dnnperf:allocfree
func (r *Stream) Next() uint64 {
	r.s += Gamma
	return Mix64(r.s)
}

// Float64 returns a uniform value in [0, 1).
//
//dnnperf:allocfree
func (r *Stream) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be positive.
//
//dnnperf:allocfree
func (r *Stream) Intn(n int) int {
	return int(r.Next() % uint64(n))
}
