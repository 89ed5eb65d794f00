package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// runCLI drives dispatch in-process with os.Stderr captured, returning the
// exit code and everything the run printed there.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	captured := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		captured <- string(b)
	}()
	code := dispatch(args)
	os.Stderr = saved
	w.Close()
	return code, <-captured
}

// A leading word routes to its subcommand, a leading flag to the experiment
// catalog, and a word that names no subcommand is an error. Regression: an
// unmatched word (a typo, or the retired `bench`/`perf`) fell through to the
// experiment flag set, printed the experiment list and exited 0. The retired
// live backend's subcommand and sweep flag are unknown words too, as are the
// retired -audit and -pprof sweep flags. A bad flag or -scale for the
// experiment catalog exits 2 before any experiment runs.
func TestDispatch(t *testing.T) {
	for _, c := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"chaos", "-loss", "abc"}, 2, `chaos: bad -loss entry "abc"`},
		{[]string{"sweeep"}, 2, `quicbench: unknown subcommand "sweeep"`},
		{[]string{"bench"}, 2, `quicbench: unknown subcommand "bench"`},
		{[]string{"perf", "-trajectory", "x"}, 2, `quicbench: unknown subcommand "perf"`},
		{[]string{"live", "-stacks", "quicgo"}, 2, `quicbench: unknown subcommand "live"`},
		{[]string{"sweep", "-live"}, 2, "flag provided but not defined: -live"},
		{[]string{"sweep", "-audit", "0.5"}, 2, "flag provided but not defined: -audit"},
		{[]string{"sweep", "-pprof", ":0"}, 2, "flag provided but not defined: -pprof"},
		{[]string{"-exp", "nosuch"}, 2, `unknown experiment "nosuch"`},
		{[]string{"-exp", "fig6", "-bogus"}, 2, "flag provided but not defined: -bogus"},
		{[]string{"-exp", "fig6", "-scale", "huge"}, 2, `unknown -scale "huge"`},
	} {
		code, stderr := runCLI(t, c.args...)
		if code != c.code || !strings.Contains(stderr, c.stderr) {
			t.Errorf("quicbench %s: exit %d, stderr %q; want exit %d with %q",
				strings.Join(c.args, " "), code, stderr, c.code, c.stderr)
		}
	}
}
