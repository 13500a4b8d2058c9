package core

import (
	"math"
	"math/bits"

	"incore/internal/uarch"
)

// balanceJob is one µ-op's worth of port work: Cycles of occupancy that may
// be split arbitrarily across the ports in Mask.
type balanceJob struct {
	Mask   uarch.PortMask
	Cycles float64
}

// OptimalPortBound computes the exact minimum achievable maximum port load
// (in cycles) for a set of splittable µ-ops with port restrictions over a
// machine with nPorts ports.
//
// For splittable jobs under restricted assignment the optimum equals
//
//	max over port sets S of  demand(S) / |S|
//
// where demand(S) is the total work of jobs whose candidate set is
// contained in S, and the maximizing S can be chosen as a union of job
// candidate sets. The number of distinct candidate sets in a real machine
// model is small, so enumerating all unions is cheap and exact.
func OptimalPortBound(jobs []balanceJob, nPorts int) float64 {
	var s Scratch
	return s.optimalBound(jobs, nPorts)
}

// optimalBound is OptimalPortBound on this scratch's arenas.
func (s *Scratch) optimalBound(jobs []balanceJob, nPorts int) float64 {
	// Aggregate work per distinct mask, in job order. Real models carry
	// ~10 distinct masks, so a linear scan beats hashing.
	s.masks, s.works = s.masks[:0], s.works[:0]
	var union uarch.PortMask
	for _, j := range jobs {
		if j.Mask == 0 || j.Cycles <= 0 {
			continue
		}
		union |= j.Mask
		found := false
		for i, m := range s.masks {
			if m == j.Mask {
				s.works[i] += j.Cycles
				found = true
				break
			}
		}
		if !found {
			s.masks = append(s.masks, j.Mask)
			s.works = append(s.works, j.Cycles)
		}
	}
	if len(s.masks) == 0 {
		return 0
	}
	best := 0.0
	n := len(s.masks)
	if n > 20 {
		// Defensive fallback: proportional heuristic (not expected with
		// realistic models, which have ~10 distinct masks).
		for _, l := range s.heuristicInto(jobs, nPorts) {
			best = math.Max(best, l)
		}
		return best
	}
	// Dedup visited unions with an epoch-stamped direct-index table when
	// the union fits one (any real model: ≤ 12 ports). Without the
	// table, duplicate unions are merely recomputed — same maximum.
	useSeen := union < 1<<16
	if useSeen {
		if need := int(union) + 1; len(s.seen) < need {
			s.seen = append(s.seen, make([]uint32, need-len(s.seen))...)
		}
		s.epoch++
		if s.epoch == 0 { // wrapped: stale stamps could collide, rewash
			clear(s.seen)
			s.epoch = 1
		}
	}
	for set := 1; set < 1<<uint(n); set++ {
		var u uarch.PortMask
		for i := 0; i < n; i++ {
			if set&(1<<uint(i)) != 0 {
				u |= s.masks[i]
			}
		}
		if useSeen {
			if s.seen[u] == s.epoch {
				continue
			}
			s.seen[u] = s.epoch
		}
		demand := 0.0
		for i, m := range s.masks {
			if m&^u == 0 {
				demand += s.works[i]
			}
		}
		if v := demand / float64(u.Count()); v > best {
			best = v
		}
	}
	return best
}

// HeuristicAssignment distributes µ-op cycles across ports with an
// iterative proportional water-filling heuristic and returns the per-port
// load vector. It is used for the per-port pressure *report*; the bound
// itself comes from OptimalPortBound. nPorts caps the port index range.
func HeuristicAssignment(jobs []balanceJob, nPorts int) []float64 {
	var s Scratch
	return s.heuristicInto(jobs, nPorts)
}

// heuristicInto is HeuristicAssignment on this scratch's arenas; the
// returned slice is s.loads and valid until the scratch's next use.
//
// The splits live in one flat shares array (portSpan[j]..portSpan[j+1] is
// job j's span over ports) instead of a jagged per-job matrix, and the
// iteration stops early at a fixed point: when a full pass leaves every
// share bitwise unchanged, each remaining pass would start from the same
// shares and run the identical float sequence, so the final loads are
// bit-for-bit those of the fixed 64-pass reference.
func (s *Scratch) heuristicInto(jobs []balanceJob, nPorts int) []float64 {
	s.loads = grow(s.loads, nPorts)
	loads := s.loads
	s.ports, s.shares = s.ports[:0], s.shares[:0]
	s.portSpan = append(s.portSpan[:0], 0)
	for _, job := range jobs {
		for v := job.Mask; v != 0; v &= v - 1 {
			s.ports = append(s.ports, int32(bits.TrailingZeros32(uint32(v))))
		}
		s.portSpan = append(s.portSpan, int32(len(s.ports)))
	}
	for j, job := range jobs {
		np := int(s.portSpan[j+1] - s.portSpan[j])
		for k := 0; k < np; k++ {
			s.shares = append(s.shares, job.Cycles/float64(np))
		}
	}
	const iters = 64
	for it := 0; it < iters; it++ {
		for i := range loads {
			loads[i] = 0
		}
		for j := range jobs {
			for k := s.portSpan[j]; k < s.portSpan[j+1]; k++ {
				loads[s.ports[k]] += s.shares[k]
			}
		}
		// Rebalance each job toward less-loaded ports.
		changed := false
		for j := range jobs {
			lo, hi := s.portSpan[j], s.portSpan[j+1]
			if hi-lo <= 1 {
				continue
			}
			// Remove this job's contribution.
			for k := lo; k < hi; k++ {
				loads[s.ports[k]] -= s.shares[k]
			}
			// Redistribute: weight inversely with residual load. A mask
			// has at most 32 ports, so the weights fit a stack array.
			var weights [32]float64
			sum := 0.0
			for k := lo; k < hi; k++ {
				w := 1.0 / (loads[s.ports[k]] + 0.05)
				weights[k-lo] = w
				sum += w
			}
			for k := lo; k < hi; k++ {
				share := jobs[j].Cycles * weights[k-lo] / sum
				if share != s.shares[k] {
					changed = true
				}
				s.shares[k] = share
				loads[s.ports[k]] += share
			}
		}
		if !changed {
			break
		}
	}
	return loads
}

// GreedyPortBound assigns each µ-op entirely to the currently
// least-loaded candidate port in instruction order (no splitting, no
// lookahead) and returns the resulting maximum port load. This mirrors
// what a naive scheduler model (and the hardware's oldest-first pickers)
// achieves and is exposed for the ablation study of the port-balancing
// design choice (DESIGN.md #1).
func GreedyPortBound(jobs []balanceJob, nPorts int) float64 {
	var s Scratch
	return s.greedyBound(jobs, nPorts)
}

// greedyBound is GreedyPortBound on this scratch's arenas.
func (s *Scratch) greedyBound(jobs []balanceJob, nPorts int) float64 {
	s.loads = grow(s.loads, nPorts)
	loads := s.loads
	for i := range loads {
		loads[i] = 0
	}
	for _, job := range jobs {
		bestPort, bestLoad := -1, math.Inf(1)
		for v := job.Mask; v != 0; v &= v - 1 {
			p := bits.TrailingZeros32(uint32(v))
			if loads[p] < bestLoad {
				bestPort, bestLoad = p, loads[p]
			}
		}
		if bestPort >= 0 {
			loads[bestPort] += job.Cycles
		}
	}
	max := 0.0
	for _, l := range loads {
		max = math.Max(max, l)
	}
	return max
}
