package main

import (
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"syscall"
)

// installSIGQUIT repurposes SIGQUIT (^\) as a diagnostics trigger: instead
// of the Go runtime's kill-with-stacks default, each SIGQUIT writes
// goroutine and heap profiles next to the temp dir and a goroutine summary
// to stderr, and the process keeps running. The returned function restores
// the default disposition.
func installSIGQUIT() func() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		for range ch {
			dumpProfiles()
		}
	}()
	return func() { signal.Stop(ch) }
}

// dumpProfiles writes goroutine and heap .pprof files plus a condensed
// goroutine listing to stderr.
func dumpProfiles() {
	for _, name := range []string{"goroutine", "heap"} {
		p := pprof.Lookup(name)
		if p == nil {
			continue
		}
		path := filepath.Join(os.TempDir(), fmt.Sprintf("quicbench-%d-%s.pprof", os.Getpid(), name))
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pprof: %s: %v\n", name, err)
			continue
		}
		if werr := p.WriteTo(f, 0); werr != nil {
			fmt.Fprintf(os.Stderr, "pprof: %s: %v\n", name, werr)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "pprof: wrote %s\n", path)
	}
	if p := pprof.Lookup("goroutine"); p != nil {
		_ = p.WriteTo(os.Stderr, 1)
	}
}
