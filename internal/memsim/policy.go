package memsim

// WAPolicyKind selects the write-miss handling of a system.
type WAPolicyKind int

// Write-allocate policies of the three systems.
const (
	// PolicyAlwaysAllocate is classic write-allocate (Zen 4 with
	// standard stores: the only WA evasion on Genoa is NT stores).
	PolicyAlwaysAllocate WAPolicyKind = iota
	// PolicyAutoClaim is the automatic cache-line claim of Arm cores
	// (Grace): full-line streaming overwrites claim lines without
	// reading them.
	PolicyAutoClaim
	// PolicySpecI2M is Intel's speculative I2M conversion: RFOs become
	// ownership-only requests once the memory interface nears
	// saturation, for a bounded share of misses.
	PolicySpecI2M
)

// String names the policy.
func (k WAPolicyKind) String() string {
	switch k {
	case PolicyAlwaysAllocate:
		return "always-allocate"
	case PolicyAutoClaim:
		return "auto-claim"
	case PolicySpecI2M:
		return "specI2M"
	default:
		return "unknown"
	}
}

// streamDetector recognizes sequential full-line write streams (the
// trigger for automatic cache-line claim on Neoverse cores).
type streamDetector struct {
	lastLine    LineAddr
	consecutive int
	// TrainLen is the number of consecutive lines required before the
	// detector engages.
	TrainLen int
}

// Observe feeds one written line address and reports whether the detector
// is (now) in streaming mode.
func (d *streamDetector) Observe(a LineAddr) bool {
	if d.TrainLen <= 0 {
		d.TrainLen = 8
	}
	if d.consecutive > 0 && a == d.lastLine+1 {
		d.consecutive++
	} else {
		d.consecutive = 1
	}
	d.lastLine = a
	return d.consecutive > d.TrainLen
}

// specI2MState tracks the deterministic fractional conversion of RFOs to
// I2M requests per memory controller.
type specI2MState struct {
	// Threshold is the utilization at which conversion begins; MaxShare
	// is the asymptotic fraction of converted RFOs (paper: SpecI2M
	// reduces write-allocate traffic by at most ~25%, and only near
	// saturation).
	Threshold float64
	MaxShare  float64
	// RampEnd is the utilization at which MaxShare is reached.
	RampEnd float64
	acc     float64
}

// Convert reports whether the next RFO should be converted to I2M given
// the controller utilization. Conversion is deterministic: the share
// accumulates fractionally, so exactly share(util) of requests convert.
func (s *specI2MState) Convert(util float64) bool {
	share := s.share(util)
	if share <= 0 {
		return false
	}
	s.acc += share
	if s.acc >= 1 {
		s.acc--
		return true
	}
	return false
}

func (s *specI2MState) share(util float64) float64 {
	if util < s.Threshold {
		return 0
	}
	if s.RampEnd <= s.Threshold {
		return s.MaxShare
	}
	f := (util - s.Threshold) / (s.RampEnd - s.Threshold)
	if f > 1 {
		f = 1
	}
	return f * s.MaxShare
}
