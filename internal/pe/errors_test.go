package pe

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/geom"
)

// scatter builds a well-spread trial with n points.
func scatter(n int, off float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		f := float64(i)
		pts[i] = geom.Point{X: off + 10 + f*0.7, Y: off + 5 + float64((i*7)%13)}
	}
	return pts
}

func TestBuildENoSamples(t *testing.T) {
	for _, trials := range [][][]geom.Point{
		nil,
		{},
		{{}, {}},
	} {
		if _, err := BuildE(trials, Options{Seed: 1}); !errors.Is(err, ErrNoSamples) {
			t.Errorf("BuildE(%v) err = %v, want ErrNoSamples", trials, err)
		}
	}
}

func TestBuildEInsufficientSamples(t *testing.T) {
	trials := [][]geom.Point{scatter(MinSamples-1, 0)}
	_, err := BuildE(trials, Options{Seed: 1})
	if !errors.Is(err, ErrInsufficientSamples) {
		t.Fatalf("err = %v, want ErrInsufficientSamples", err)
	}
}

func TestBuildEDegenerateEnvelope(t *testing.T) {
	// Collinear samples: enough of them, but zero hull area.
	pts := make([]geom.Point, 2*MinSamples)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i), Y: float64(i)}
	}
	_, err := BuildE([][]geom.Point{pts}, Options{Seed: 1, ForceK: 1})
	if !errors.Is(err, ErrDegenerateEnvelope) {
		t.Fatalf("err = %v, want ErrDegenerateEnvelope", err)
	}
}

func TestBuildEValid(t *testing.T) {
	env, err := BuildE([][]geom.Point{scatter(40, 0), scatter(40, 1)}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if env.Area() <= 0 {
		t.Fatalf("valid envelope has area %v", env.Area())
	}
}

func TestEvaluateETagsFailingSide(t *testing.T) {
	good := [][]geom.Point{scatter(40, 0), scatter(40, 1)}
	empty := [][]geom.Point{{}}

	_, err := EvaluateE(empty, good, Options{Seed: 1})
	if !errors.Is(err, ErrNoSamples) || !strings.Contains(err.Error(), "test envelope") {
		t.Errorf("empty test side: err = %v, want ErrNoSamples tagged 'test envelope'", err)
	}
	_, err = EvaluateE(good, empty, Options{Seed: 1})
	if !errors.Is(err, ErrNoSamples) || !strings.Contains(err.Error(), "reference envelope") {
		t.Errorf("empty reference side: err = %v, want ErrNoSamples tagged 'reference envelope'", err)
	}
	if _, err := EvaluateE(good, good, Options{Seed: 1}); err != nil {
		t.Errorf("valid inputs rejected: %v", err)
	}
}
