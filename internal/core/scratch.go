package core

import (
	"incore/internal/depgraph"
	"incore/internal/uarch"
)

// Scratch holds every reusable working buffer one analysis needs — the
// dependency graph arenas plus the port-balancer's flat job/share/load
// arrays — so a steady stream of analyses does O(1) heap work after
// warmup. Each ResultArena embeds one; the zero value is ready to use,
// and a Scratch serves one goroutine at a time.
type Scratch struct {
	dg depgraph.Scratch

	// jobs is the block's full µ-op job list; jobSpan[i]..jobSpan[i+1]
	// is instruction i's slice of it, replacing the per-instruction
	// re-balancing job slices of the pre-arena implementation.
	jobs    []balanceJob
	jobSpan []int32

	// Flat balancer state: ports holds every job's candidate port
	// indices back to back (portSpan[j]..portSpan[j+1] is job j's span),
	// shares the per-candidate cycle split aligned with ports.
	ports    []int32
	portSpan []int32
	shares   []float64
	loads    []float64

	// Distinct-mask aggregation for OptimalPortBound (the former work
	// map), plus an epoch-stamped direct-index table for union dedup
	// (the former seen map): seen[u] == epoch marks union u visited in
	// the current call, so reuse never requires zeroing the table.
	masks []uarch.PortMask
	works []float64
	seen  []uint32
	epoch uint32
}

// grow returns s resized to length n, preserving existing contents (and
// backing capacity) wherever possible; callers reinitialize the prefix
// they use. Same contract as depgraph's growOuter, so arena code ports
// between the packages without changing reuse semantics.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}
