package cc

import (
	"testing"

	"repro/internal/sim"
)

func bbrCfg() Config { return Config{MSS: testMSS} }

// bbrAck builds an AckEvent with a delivery-rate sample.
func bbrAck(now sim.Time, bytes int, rtt sim.Time, rate float64, round int64, inflight int) AckEvent {
	return AckEvent{
		Now:              now,
		AckedBytes:       bytes,
		LargestAckedSent: now - rtt,
		RTT:              rtt,
		SRTT:             rtt,
		MinRTT:           rtt,
		BytesInFlight:    inflight,
		DeliveryRate:     rate,
		RoundTrips:       round,
	}
}

// driveBBRToProbeBW feeds a steady bandwidth signal until BBR reaches
// PROBE_BW, returning the final time and round.
func driveBBRToProbeBW(b *BBR, rate float64, rtt sim.Time) (sim.Time, int64) {
	now := sim.Time(0)
	round := int64(0)
	for i := 0; i < 50 && b.state.String() != "probe_bw"; i++ {
		now += rtt
		round++
		inflight := int(rate * rtt.Seconds())
		b.OnAck(bbrAck(now, 10*testMSS, rtt, rate, round, inflight))
	}
	return now, round
}

func TestBBRStartsInStartup(t *testing.T) {
	b := NewBBR(bbrCfg())
	if b.state.String() != "startup" {
		t.Fatalf("state = %s", b.state.String())
	}
	if !b.InSlowStart() {
		t.Fatal("InSlowStart false in startup")
	}
	if b.Name() != "bbr" {
		t.Fatal("name wrong")
	}
}

func TestBBRInitialPacingPositive(t *testing.T) {
	b := NewBBR(bbrCfg())
	if b.PacingRate() <= 0 {
		t.Fatal("BBR must always pace")
	}
}

func TestBBRStartupGrowsWindow(t *testing.T) {
	b := NewBBR(bbrCfg())
	before := b.CWND()
	now := sim.Time(0)
	for i := int64(1); i <= 5; i++ {
		now += 10 * sim.Millisecond
		rate := 2e6 * float64(i) // growing bandwidth
		b.OnAck(bbrAck(now, 10*testMSS, 10*sim.Millisecond, rate, i, 20*testMSS))
	}
	if b.CWND() <= before {
		t.Fatalf("startup did not grow cwnd: %d", b.CWND())
	}
	if b.state.String() != "startup" {
		t.Fatalf("left startup while bandwidth still growing: %s", b.state.String())
	}
}

func TestBBRExitsStartupWhenPipeFull(t *testing.T) {
	b := NewBBR(bbrCfg())
	driveBBRToProbeBW(b, 2.5e6, 10*sim.Millisecond)
	if b.state.String() != "probe_bw" {
		t.Fatalf("state = %s, want probe_bw after flat bandwidth", b.state.String())
	}
}

func TestBBRDrainReducesPacingBelowUnity(t *testing.T) {
	b := NewBBR(bbrCfg())
	now := sim.Time(0)
	round := int64(0)
	const rate = 2.5e6
	for i := 0; i < 50 && b.state.String() != "drain"; i++ {
		now += 10 * sim.Millisecond
		round++
		// Keep inflight far above BDP so drain does not complete.
		b.OnAck(bbrAck(now, 10*testMSS, 10*sim.Millisecond, rate, round, 100*testMSS))
	}
	if b.state.String() != "drain" {
		t.Skipf("did not observe drain state (went %s)", b.state.String())
	}
	if got := b.PacingRate(); got >= rate {
		t.Fatalf("drain pacing %v not below bottleneck %v", got, rate)
	}
}

func TestBBRProbeBWCwndIsGainTimesBDP(t *testing.T) {
	b := NewBBR(bbrCfg())
	const rate = 2.5e6 // bytes/s
	rtt := 10 * sim.Millisecond
	now, round := driveBBRToProbeBW(b, rate, rtt)
	for i := 0; i < 10; i++ {
		now += rtt
		round++
		b.OnAck(bbrAck(now, 10*testMSS, rtt, rate, round, int(rate*rtt.Seconds())))
	}
	bdp := rate * rtt.Seconds()
	want := 2.0 * bdp
	got := float64(b.CWND())
	if got < want*0.9 || got > want*1.1 {
		t.Fatalf("probe_bw cwnd = %v, want ~%v (2x BDP)", got, want)
	}
}

func TestBBRCwndGainKnob(t *testing.T) {
	cfg := bbrCfg()
	cfg.CWNDGain = 2.5 // the xquic deviation
	b := NewBBR(cfg)
	const rate = 2.5e6
	rtt := 10 * sim.Millisecond
	now, round := driveBBRToProbeBW(b, rate, rtt)
	for i := 0; i < 10; i++ {
		now += rtt
		round++
		b.OnAck(bbrAck(now, 10*testMSS, rtt, rate, round, int(rate*rtt.Seconds())))
	}
	want := 2.5 * rate * rtt.Seconds()
	got := float64(b.CWND())
	if got < want*0.9 || got > want*1.1 {
		t.Fatalf("cwnd with gain 2.5 = %v, want ~%v", got, want)
	}
}

func TestBBRPacingRateScaleKnob(t *testing.T) {
	mk := func(scale float64) float64 {
		cfg := bbrCfg()
		cfg.PacingRateScale = scale
		b := NewBBR(cfg)
		driveBBRToProbeBW(b, 2.5e6, 10*sim.Millisecond)
		// settle into unity phase
		return b.PacingRate() / b.pacingGain()
	}
	base := mk(1.0)
	boosted := mk(1.2) // the mvfst deviation
	ratio := boosted / base
	if ratio < 1.19 || ratio > 1.21 {
		t.Fatalf("pacing scale ratio = %v, want 1.2", ratio)
	}
}

func TestBBRGainCycling(t *testing.T) {
	b := NewBBR(bbrCfg())
	const rate = 2.5e6
	rtt := 10 * sim.Millisecond
	now, round := driveBBRToProbeBW(b, rate, rtt)
	seen := map[float64]bool{}
	for i := 0; i < 100; i++ {
		now += rtt
		round++
		b.OnAck(bbrAck(now, 10*testMSS, rtt, rate, round, int(2.0*rate*rtt.Seconds())))
		seen[b.pacingGain()] = true
	}
	if !seen[1.25] || !seen[0.75] || !seen[1.0] {
		t.Fatalf("gain cycle incomplete: %v", seen)
	}
}

func TestBBRProbeRTTEntryAfterMinRTTExpiry(t *testing.T) {
	b := NewBBR(bbrCfg())
	const rate = 2.5e6
	rtt := 10 * sim.Millisecond
	now, round := driveBBRToProbeBW(b, rate, rtt)
	// Feed RTTs strictly above the min for > 10 s of virtual time.
	sawProbeRTT := false
	minCwndSeen := b.CWND()
	for i := 0; i < 1200; i++ {
		now += rtt
		round++
		ev := bbrAck(now, 10*testMSS, 12*sim.Millisecond, rate, round, 4*testMSS)
		b.OnAck(ev)
		if b.state.String() == "probe_rtt" {
			sawProbeRTT = true
			if b.CWND() < minCwndSeen {
				minCwndSeen = b.CWND()
			}
		}
	}
	if !sawProbeRTT {
		t.Fatal("never entered probe_rtt after min-RTT expiry")
	}
	if minCwndSeen != bbrProbeRTTCwndPkt*testMSS {
		t.Fatalf("probe_rtt cwnd = %d, want %d", minCwndSeen, bbrProbeRTTCwndPkt*testMSS)
	}
}

func TestBBRProbeRTTExitsBackToProbeBW(t *testing.T) {
	b := NewBBR(bbrCfg())
	const rate = 2.5e6
	rtt := 10 * sim.Millisecond
	now, round := driveBBRToProbeBW(b, rate, rtt)
	entered, exited := false, false
	for i := 0; i < 2400 && !exited; i++ {
		now += rtt
		round++
		b.OnAck(bbrAck(now, 10*testMSS, 12*sim.Millisecond, rate, round, 3*testMSS))
		if b.state.String() == "probe_rtt" {
			entered = true
		}
		if entered && b.state.String() == "probe_bw" {
			exited = true
		}
	}
	if !entered || !exited {
		t.Fatalf("probe_rtt cycle incomplete: entered=%v exited=%v state=%s", entered, exited, b.state.String())
	}
}

func TestBBRAppLimitedSamplesDoNotLowerEstimate(t *testing.T) {
	b := NewBBR(bbrCfg())
	now, round := driveBBRToProbeBW(b, 2.5e6, 10*sim.Millisecond)
	before := b.btlBw.Get()
	for i := 0; i < 5; i++ {
		now += 10 * sim.Millisecond
		round++
		ev := bbrAck(now, testMSS, 10*sim.Millisecond, 0.1e6, round, testMSS)
		ev.IsAppLimited = true
		b.OnAck(ev)
	}
	if got := b.btlBw.Get(); got < before {
		t.Fatalf("app-limited sample lowered estimate: %v -> %v", before, got)
	}
}

func TestBBRLossIsMostlyIgnored(t *testing.T) {
	b := NewBBR(bbrCfg())
	const rate = 2.5e6
	now, _ := driveBBRToProbeBW(b, rate, 10*sim.Millisecond)
	bwBefore := b.btlBw.Get()
	b.OnLoss(LossEvent{Now: now, LostBytes: testMSS, LargestLostSent: now - 5*sim.Millisecond, BytesInFlight: b.CWND() * 2})
	if got := b.btlBw.Get(); got != bwBefore {
		t.Fatalf("loss changed bandwidth model: %v -> %v", bwBefore, got)
	}
}

func TestBBRLossCapsWindowToInflight(t *testing.T) {
	b := NewBBR(bbrCfg())
	now, _ := driveBBRToProbeBW(b, 2.5e6, 10*sim.Millisecond)
	inflight := b.CWND() / 2
	b.OnLoss(LossEvent{Now: now, LostBytes: testMSS, LargestLostSent: now - 5*sim.Millisecond, BytesInFlight: inflight})
	if got := b.CWND(); got != inflight {
		t.Fatalf("cwnd after loss = %d, want inflight %d", got, inflight)
	}
}

func TestBBRPersistentCongestionCollapses(t *testing.T) {
	b := NewBBR(bbrCfg())
	driveBBRToProbeBW(b, 2.5e6, 10*sim.Millisecond)
	b.OnLoss(LossEvent{Now: sim.Second, Persistent: true})
	if got := b.CWND(); got != 2*testMSS {
		t.Fatalf("persistent congestion cwnd = %d", got)
	}
}

func TestMaxFilterBasics(t *testing.T) {
	f := newMaxFilter(10)
	if got := f.Update(0, 5); got != 5 {
		t.Fatalf("first sample max = %v", got)
	}
	if got := f.Update(1, 3); got != 5 {
		t.Fatalf("smaller sample changed max: %v", got)
	}
	if got := f.Update(2, 8); got != 8 {
		t.Fatalf("larger sample not adopted: %v", got)
	}
}

func TestMaxFilterExpiry(t *testing.T) {
	f := newMaxFilter(10)
	f.Update(0, 100)
	for tm := int64(1); tm <= 25; tm++ {
		f.Update(tm, 5)
	}
	if got := f.Get(); got != 5 {
		t.Fatalf("stale max survived: %v", got)
	}
}

func TestMaxFilterTracksDecreasingSignal(t *testing.T) {
	f := newMaxFilter(10)
	for tm := int64(0); tm < 50; tm++ {
		f.Update(tm, float64(100-tm))
	}
	// Max over last 10 samples at tm=49: values 59..50 => 59... but best-3
	// tracking is approximate; require it to be within the window range.
	got := f.Get()
	if got < 50 || got > 61 {
		t.Fatalf("windowed max = %v, want in [50, 61]", got)
	}
}

func TestBBRSpuriousLossIsNoop(t *testing.T) {
	b := NewBBR(bbrCfg())
	now, _ := driveBBRToProbeBW(b, 2.5e6, 10*sim.Millisecond)
	before := b.CWND()
	b.OnSpuriousLoss(now, now-5*sim.Millisecond)
	if b.CWND() != before {
		t.Fatal("spurious loss changed BBR state")
	}
}
