package live

import (
	"net"
	"sync"

	"repro/internal/netem"
	"repro/internal/rtclock"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// LoopClock adapts *rtclock.Loop to transport.Clock.
type LoopClock struct{ L *rtclock.Loop }

// Now implements transport.Clock.
func (c LoopClock) Now() sim.Time { return c.L.Now() }

// NewTimer implements transport.Clock.
func (c LoopClock) NewTimer(fn func()) transport.TimerHandle { return c.L.NewTimer(fn) }

// Endpoint is one UDP host running a transport sender or receiver on its
// own real-time event loop. Its read goroutine pumps datagrams into the
// loop; its writer serializes packets straight onto the socket.
type Endpoint struct {
	conn *net.UDPConn
	loop *rtclock.Loop
	done chan struct{}
	wg   sync.WaitGroup

	rlcfg ReadLoopConfig

	mu      sync.Mutex
	readErr error

	closeOnce sync.Once
}

// NewEndpoint opens a loopback UDP socket and starts a fresh event loop.
// Socket refusals classify as ErrSocket. deny injects the
// faults.EnvLiveEPERM hook's synthetic refusal.
func NewEndpoint(rlcfg ReadLoopConfig, deny bool) (*Endpoint, error) {
	conn, err := listenUDP(deny)
	if err != nil {
		return nil, err
	}
	return &Endpoint{
		conn:  conn,
		loop:  rtclock.New(),
		done:  make(chan struct{}),
		rlcfg: rlcfg,
	}, nil
}

// Addr returns the endpoint's socket address.
func (e *Endpoint) Addr() *net.UDPAddr { return e.conn.LocalAddr().(*net.UDPAddr) }

// Loop exposes the endpoint's event loop (for posting Start/Stop and for
// clock-sanity stats).
func (e *Endpoint) Loop() *rtclock.Loop { return e.loop }

// Clock returns the endpoint's loop as a transport.Clock.
func (e *Endpoint) Clock() transport.Clock { return LoopClock{e.loop} }

// WriterTo returns a netem.Handler that serializes packets to dst. The
// handler runs on the endpoint's loop goroutine only, so one reusable
// buffer serves every packet.
func (e *Endpoint) WriterTo(dst *net.UDPAddr) netem.Handler {
	buf := make([]byte, 2048)
	return netem.HandlerFunc(func(p *netem.Packet) {
		n, err := wire.Encode(buf, p)
		if err != nil {
			return
		}
		e.conn.WriteToUDP(buf[:n], dst)
	})
}

// ReadInto pumps incoming datagrams into h on the endpoint's loop. The
// read loop's typed verdict (ErrReadLoop, ErrTorndown) is captured for
// Err/Close instead of being logged and lost.
func (e *Endpoint) ReadInto(h netem.Handler) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		err := ReadLoop(e.conn, e.done, e.rlcfg, func(buf []byte, n int) {
			pkt, derr := wire.Decode(buf[:n])
			if derr != nil {
				return
			}
			e.loop.Post(func() { h.HandlePacket(pkt) })
		})
		if err != nil {
			e.mu.Lock()
			if e.readErr == nil {
				e.readErr = err
			}
			e.mu.Unlock()
		}
	}()
}

// Err returns the read loop's first typed error, if any.
func (e *Endpoint) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.readErr
}

// Kill force-closes the endpoint socket without joining anything — the
// watchdog's hammer. A later Close still joins cleanly; the read loop's
// resulting ErrTorndown is expected and superseded by the kill reason.
func (e *Endpoint) Kill() { e.conn.Close() }

// Close tears the endpoint down — the read goroutine is joined before the
// event loop closes, so no callback is posted to a dead loop — and
// returns the read loop's typed verdict (nil on orderly shutdown).
func (e *Endpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.done)
		e.conn.Close()
		e.wg.Wait()
		e.loop.Close()
	})
	return e.Err()
}
