package dist

import (
	"hash/fnv"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
)

// chaosConn wraps a net.Conn and injects write-path failures: latency
// spikes, byte corruption, an asymmetric outbound partition, and a torn
// final write — the faults.EnvDist{Latency,Corrupt,Partition,Torn} hooks.
// Unlike the assignment-keyed hooks (crash, blackhole, diverge) these act
// on raw bytes, below the frame layer. All state is seeded from the worker
// name, so a given worker's chaos schedule is reproducible run to run.
type chaosConn struct {
	net.Conn

	mu       sync.Mutex
	rng      *rand.Rand
	writes   int
	latency  time.Duration
	corrupt  int // flip a byte every corrupt-th write (0 = off)
	partAt   int // writes before the partition opens (0 = off)
	partFor  time.Duration
	partOver time.Time
	inPart   bool
	tornAt   int // write number to tear and sever on (0 = off)
}

// chaosFromEnv wraps conn according to the network fault hooks, seeding
// the schedule from name. With no hooks set it returns conn untouched.
func chaosFromEnv(conn net.Conn, name string) net.Conn {
	latency, _ := time.ParseDuration(faults.Hook(faults.EnvDistLatency))
	corrupt, _ := strconv.Atoi(faults.Hook(faults.EnvDistCorrupt))
	torn, _ := strconv.Atoi(faults.Hook(faults.EnvDistTorn))
	partAt, partFor := parsePartition(faults.Hook(faults.EnvDistPartition))
	if latency <= 0 && corrupt <= 0 && torn <= 0 && partAt <= 0 {
		return conn
	}
	seed := fnv.New64a()
	seed.Write([]byte(name))
	return &chaosConn{
		Conn:    conn,
		rng:     rand.New(rand.NewSource(int64(seed.Sum64()))),
		latency: latency,
		corrupt: corrupt,
		partAt:  partAt,
		partFor: partFor,
		tornAt:  torn,
	}
}

// parsePartition parses "N:duration" (e.g. "40:2s").
func parsePartition(s string) (int, time.Duration) {
	at, dur, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0
	}
	n, err := strconv.Atoi(at)
	d, derr := time.ParseDuration(dur)
	if err != nil || derr != nil || n <= 0 || d <= 0 {
		return 0, 0
	}
	return n, d
}

func (c *chaosConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	n := c.writes
	var delay time.Duration
	if c.latency > 0 && c.rng.Intn(3) == 0 {
		delay = time.Duration(c.rng.Int63n(int64(c.latency)))
	}
	// Asymmetric partition: claim success, deliver nothing. The reader
	// side keeps working; only wall time (the coordinator's reaper) can
	// notice.
	if c.partAt > 0 && n >= c.partAt && !c.inPart {
		c.inPart = true
		c.partOver = time.Now().Add(c.partFor)
	}
	if c.inPart {
		if time.Now().Before(c.partOver) {
			c.mu.Unlock()
			return len(p), nil
		}
		c.inPart = false
		c.partAt = 0 // one partition per connection
	}
	tear := c.tornAt > 0 && n >= c.tornAt
	flip := -1
	if !tear && c.corrupt > 0 && n%c.corrupt == 0 && len(p) > 0 {
		// Flip past the 8-byte frame header when there is one: a flipped
		// length prefix desyncs the stream into a silent stall (the
		// partition hook's failure mode, reaped by wall clock); a flipped
		// body byte is the CRC-catchable corruption this hook is for.
		if len(p) > 8 {
			flip = 8 + c.rng.Intn(len(p)-8)
		} else {
			flip = c.rng.Intn(len(p))
		}
	}
	c.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	if tear {
		// Torn write: half the bytes, then sever the connection.
		if len(p) > 1 {
			c.Conn.Write(p[:len(p)/2])
		}
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	if flip >= 0 {
		mangled := append([]byte(nil), p...)
		mangled[flip] ^= 0x20
		return c.Conn.Write(mangled)
	}
	return c.Conn.Write(p)
}
