package quicbench

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/stacks"
	"repro/internal/transport"
)

// Tunables exposes the congestion control and stack-profile knobs a
// developer might set while building their own QUIC CCA implementation.
// The zero value is the standard algorithm under the standard QUIC profile
// (1200-byte datagrams, ACK every 2nd packet, 25 ms max ACK delay).
//
// These are exactly the knobs behind the deviations the paper found in the
// wild: compare your setting's conformance before shipping it.
type Tunables struct {
	// CWNDGain overrides BBR's PROBE_BW cwnd gain (default 2.0).
	CWNDGain float64
	// PacingRateScale multiplies BBR's final pacing rate (default 1.0;
	// mvfst shipped 1.2).
	PacingRateScale float64
	// PacingScale sets window-based pacing for CUBIC/Reno as a multiple
	// of cwnd/SRTT (default 1.25; 0 keeps the default, use NoPacing to
	// disable).
	PacingScale float64
	// NoPacing disables pacing for window-based controllers.
	NoPacing bool
	// EmulatedConnections emulates N flows in one CUBIC connection
	// (chromium shipped 2).
	EmulatedConnections int
	// DisableHyStart turns HyStart off for CUBIC (xquic shipped without
	// it).
	DisableHyStart bool
	// SpuriousLossRollback enables the RFC 8312bis §4.9 undo (quiche
	// shipped it ahead of the kernel).
	SpuriousLossRollback bool
	// FastConvergenceOff disables CUBIC fast convergence (lsquic).
	FastConvergenceOff bool
	// CWNDClampPackets caps the window (0 = no cap).
	CWNDClampPackets int
	// AckEveryN overrides the receiver's ACK frequency (default 2).
	AckEveryN int
	// MaxAckDelayMs overrides the receiver's max ACK delay (default 25).
	MaxAckDelayMs int
	// TimerGranularityMs coarsens sender timers (default 1).
	TimerGranularityMs int
}

// customStack builds a one-off stack from tunables.
func customStack(name string, cca CCA, t Tunables) (*stacks.Stack, error) {
	base := stacks.Get("quicgo") // the plain QUIC profile carrier
	if !base.Has(stacks.CCA(cca)) {
		// quicgo lacks BBR in Table 1; borrow the lsquic entry for it.
		base = stacks.Get("lsquic")
	}
	if !base.Has(stacks.CCA(cca)) {
		return nil, fmt.Errorf("quicbench: no base profile for %s", cca)
	}
	cfg := base.CCAs[stacks.CCA(cca)]
	// Reset per-stack quirks so the starting point is the standard
	// algorithm.
	cfg.FastConvergenceOff = false
	cfg.HyStart = cca == CUBIC
	if t.CWNDGain > 0 {
		cfg.CWNDGain = t.CWNDGain
	}
	if t.PacingRateScale > 0 {
		cfg.PacingRateScale = t.PacingRateScale
	}
	if t.PacingScale > 0 {
		cfg.PacingScale = t.PacingScale
	}
	if t.NoPacing {
		cfg.PacingScale = 0
	}
	if t.EmulatedConnections > 0 {
		cfg.EmulatedConnections = t.EmulatedConnections
	}
	if t.DisableHyStart {
		cfg.HyStart = false
	}
	cfg.SpuriousLossRollback = t.SpuriousLossRollback
	cfg.FastConvergenceOff = t.FastConvergenceOff
	if t.CWNDClampPackets > 0 {
		cfg.CWNDClampPackets = t.CWNDClampPackets
	}

	profile := base.Profile
	if t.AckEveryN > 0 {
		profile.AckEveryN = t.AckEveryN
	}
	if t.MaxAckDelayMs > 0 {
		profile.MaxAckDelay = simDur(time.Duration(t.MaxAckDelayMs) * time.Millisecond)
	}
	if t.TimerGranularityMs > 0 {
		profile.TimerGranularity = simDur(time.Duration(t.TimerGranularityMs) * time.Millisecond)
	}
	return &stacks.Stack{
		Name:         name,
		Organization: "custom",
		Profile:      profile,
		CCAs:         map[stacks.CCA]cc.Config{stacks.CCA(cca): cfg},
		Notes:        map[stacks.CCA]string{},
	}, nil
}

// MeasureCustom measures the conformance of a custom implementation
// described by tunables against the kernel reference — the workflow a
// stack developer uses before shipping a tuning change.
func MeasureCustom(name string, cca CCA, t Tunables, net Network) (Report, error) {
	s, err := customStack(name, cca, t)
	if err != nil {
		return Report{}, err
	}
	return conformance(core.Flow{Stack: s, CCA: stacks.CCA(cca)}, net)
}

// MeasureCustomFairness runs the §4.3 bandwidth-share experiment between a
// custom implementation and a registry implementation.
func MeasureCustomFairness(name string, cca CCA, t Tunables, against Impl, net Network) (Share, error) {
	s, err := customStack(name, cca, t)
	if err != nil {
		return Share{}, err
	}
	fb, err := flow(against.Stack, against.CCA)
	if err != nil {
		return Share{}, err
	}
	return share(Impl{Stack: name, CCA: cca}, against, core.Flow{Stack: s, CCA: stacks.CCA(cca)}, fb, net)
}

// Profile reports the transport profile of a registry stack, for
// documentation and tests.
func Profile(stack string) (transport.Config, bool) {
	s := stacks.Get(stack)
	if s == nil {
		return transport.Config{}, false
	}
	return s.Profile, true
}
