package dist

import (
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/faults"
)

// pipeConn returns a connected TCP pair on loopback (net.Pipe has no
// buffering, which deadlocks single-goroutine write-then-read tests).
func pipeConn(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ch := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			ch <- c
		}
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := <-ch
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestChaosFromEnvNoHooksIsTransparent(t *testing.T) {
	a, _ := pipeConn(t)
	if got := chaosFromEnv(a, "w"); got != a {
		t.Error("with no hooks set, chaosFromEnv must return the conn untouched")
	}
}

func TestChaosCorruptFlipsEveryNthWrite(t *testing.T) {
	a, b := pipeConn(t)
	t.Setenv(faults.EnvDistCorrupt, "2")
	cc := chaosFromEnv(a, "w-chaos")
	if cc == a {
		t.Fatal("corrupt hook did not wrap the conn")
	}
	msg := []byte("hello fabric")
	read := func() []byte {
		buf := make([]byte, len(msg))
		b.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := io.ReadFull(b, buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	if _, err := cc.Write(msg); err != nil {
		t.Fatal(err)
	}
	if got := read(); string(got) != string(msg) {
		t.Errorf("write 1 corrupted: %q", got)
	}
	if _, err := cc.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := read()
	diff := 0
	for i := range msg {
		if got[i] != msg[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("write 2: %d bytes differ, want exactly 1 flipped (%q)", diff, got)
	}
}

func TestChaosPartitionDropsThenHeals(t *testing.T) {
	a, b := pipeConn(t)
	t.Setenv(faults.EnvDistPartition, "2:300ms")
	cc := chaosFromEnv(a, "w-chaos")
	if _, err := cc.Write([]byte("one")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	b.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := b.Read(buf); err != nil || string(buf[:n]) != "one" {
		t.Fatalf("pre-partition write lost: %v %q", err, buf[:n])
	}
	// Writes 2..n during the partition claim success but deliver nothing.
	if n, err := cc.Write([]byte("two")); err != nil || n != 3 {
		t.Fatalf("partitioned write should claim success, got n=%d err=%v", n, err)
	}
	b.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if n, _ := b.Read(buf); n != 0 {
		t.Fatalf("partitioned write leaked through: %q", buf[:n])
	}
	time.Sleep(350 * time.Millisecond) // partition heals
	if _, err := cc.Write([]byte("three")); err != nil {
		t.Fatal(err)
	}
	b.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := b.Read(buf); err != nil || string(buf[:n]) != "three" {
		t.Fatalf("post-partition write lost: %v %q", err, buf[:n])
	}
}

func TestChaosTornWriteSeversConnection(t *testing.T) {
	a, b := pipeConn(t)
	t.Setenv(faults.EnvDistTorn, "1")
	cc := chaosFromEnv(a, "w-chaos")
	if _, err := cc.Write([]byte("0123456789")); err == nil {
		t.Fatal("torn write reported success")
	}
	// The peer sees exactly the torn half, then EOF.
	b.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	n, _ := b.Read(buf)
	if n != 5 {
		t.Errorf("peer received %d bytes of a torn 10-byte write, want 5", n)
	}
}
