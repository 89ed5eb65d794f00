package cc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// driveController feeds a controller a pseudo-random but causally sane
// event sequence and checks universal invariants after every event.
func driveController(t *testing.T, mk func() Controller) {
	t.Helper()
	f := func(script []byte) bool {
		ctrl := mk()
		now := sim.Time(10 * sim.Millisecond)
		minCwnd := 2 * testMSS
		inFlight := 0
		for _, op := range script {
			now += sim.Time(op%7+1) * sim.Millisecond
			switch op % 4 {
			case 0, 1: // ack
				acked := int(op%3+1) * testMSS
				if inFlight < acked {
					inFlight = acked
				}
				inFlight -= acked
				ctrl.OnAck(AckEvent{
					Now:              now,
					AckedBytes:       acked,
					LargestAckedSent: now - 10*sim.Millisecond,
					RTT:              sim.Time(op%20+5) * sim.Millisecond,
					SRTT:             10 * sim.Millisecond,
					MinRTT:           5 * sim.Millisecond,
					BytesInFlight:    inFlight,
					DeliveryRate:     float64(op+1) * 1e5,
					RoundTrips:       int64(op),
				})
			case 2: // loss
				ctrl.OnLoss(LossEvent{
					Now:             now,
					LostBytes:       testMSS,
					LargestLostSent: now - 5*sim.Millisecond,
					BytesInFlight:   inFlight,
					Persistent:      op%16 == 2,
				})
			case 3: // send + maybe spurious
				inFlight += testMSS
				ctrl.OnPacketSent(now, testMSS, inFlight)
				if op%8 == 3 {
					ctrl.OnSpuriousLoss(now, now-3*sim.Millisecond)
				}
			}
			if cw := ctrl.CWND(); cw < minCwnd {
				t.Logf("cwnd %d below minimum %d after op %d", cw, minCwnd, op)
				return false
			}
			if rate := ctrl.PacingRate(); rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
				t.Logf("pacing rate %v is negative or non-finite", rate)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestPropRenoInvariants(t *testing.T) {
	driveController(t, func() Controller { return NewReno(Config{MSS: testMSS}) })
}

func TestPropCubicInvariants(t *testing.T) {
	driveController(t, func() Controller { return NewCubic(Config{MSS: testMSS, HyStart: true}) })
}

func TestPropCubicWithRollbackInvariants(t *testing.T) {
	driveController(t, func() Controller {
		return NewCubic(Config{MSS: testMSS, SpuriousLossRollback: true})
	})
}

func TestPropBBRInvariants(t *testing.T) {
	driveController(t, func() Controller { return NewBBR(Config{MSS: testMSS}) })
}

func TestPropClampAlwaysRespected(t *testing.T) {
	f := func(clampRaw uint8, script []byte) bool {
		clamp := int(clampRaw%30) + 3
		ctrl := NewCubic(Config{MSS: testMSS, CWNDClampPackets: clamp})
		now := sim.Time(10 * sim.Millisecond)
		for _, op := range script {
			now += sim.Millisecond
			ctrl.OnAck(AckEvent{
				Now:              now,
				AckedBytes:       int(op%4+1) * testMSS,
				LargestAckedSent: now - 10*sim.Millisecond,
				RTT:              10 * sim.Millisecond,
				SRTT:             10 * sim.Millisecond,
				MinRTT:           10 * sim.Millisecond,
				RoundTrips:       int64(op),
			})
			if ctrl.CWND() > clamp*testMSS {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestGrowthDivisorSlowsCubic(t *testing.T) {
	grow := func(div int) int {
		c := NewCubic(Config{MSS: testMSS, GrowthDivisor: div})
		now := sim.Time(0)
		for i := 0; i < 20; i++ {
			now += 10 * sim.Millisecond
			c.OnAck(ack(now, 4*testMSS, now-10*sim.Millisecond))
		}
		return c.CWND()
	}
	if fast, slow := grow(1), grow(4); slow >= fast {
		t.Fatalf("divisor 4 (%d) should grow slower than 1 (%d)", slow, fast)
	}
}

func TestRollbackMinIntervalBlocksUndoState(t *testing.T) {
	cfg := Config{MSS: testMSS, SpuriousLossRollback: true, RollbackMinInterval: sim.Second}
	c := NewCubic(cfg)
	c.OnAck(ack(20*sim.Millisecond, 40*testMSS, 10*sim.Millisecond))

	// First loss + rollback works.
	c.OnLoss(LossEvent{Now: 100 * sim.Millisecond, LostBytes: testMSS, LargestLostSent: 95 * sim.Millisecond, BytesInFlight: c.CWND()})
	before := c.CWND()
	c.OnSpuriousLoss(110*sim.Millisecond, 95*sim.Millisecond)
	if c.CWND() <= before {
		t.Fatal("first rollback blocked")
	}

	// A loss within the refractory interval saves no undo state...
	c.OnLoss(LossEvent{Now: 200 * sim.Millisecond, LostBytes: testMSS, LargestLostSent: 195 * sim.Millisecond, BytesInFlight: c.CWND()})
	reduced := c.CWND()
	c.OnSpuriousLoss(210*sim.Millisecond, 195*sim.Millisecond)
	if c.CWND() != reduced {
		t.Fatal("rollback fired within the refractory interval")
	}

	// ...but after the interval the mechanism re-arms.
	c.OnLoss(LossEvent{Now: 2 * sim.Second, LostBytes: testMSS, LargestLostSent: 2*sim.Second - 5*sim.Millisecond, BytesInFlight: c.CWND()})
	reduced = c.CWND()
	c.OnSpuriousLoss(2*sim.Second+10*sim.Millisecond, 2*sim.Second-5*sim.Millisecond)
	if c.CWND() <= reduced {
		t.Fatal("rollback did not re-arm after the interval")
	}
}
