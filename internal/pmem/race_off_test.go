//go:build !race

package pmem_test

// raceEnabled reports whether the race detector is active. Allocation
// guards over the CXL mount skip under it: sync.Pool deliberately drops
// a fraction of Puts when race-instrumented, so the port's pooled burst
// buffers show spurious allocations that say nothing about the
// production build.
const raceEnabled = false
