package quicbench

// The paper's §6 sketches several extensions to the methodology. This file
// implements three of them as additional, non-paper experiments:
//
//   - ext-appselect:   using the Performance Envelope to pick a CCA for an
//                      application's desired operating region ("extending
//                      the PE to other applications");
//   - ext-transitivity: checking whether pairwise throughput dominance is
//                      transitive across implementations;
//   - ext-background:  measuring every implementation against one common
//                      standard background flow ("comparing fairly across
//                      different CCAs").

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pe"
	"repro/internal/report"
	"repro/internal/stacks"
)

// extensionsList holds the §6 extension experiments.
var extensionsList = []Experiment{
	{"ext-appselect", "§6 extension: PE-guided CCA selection for applications", runExtAppSelect},
	{"ext-transitivity", "§6 extension: transitivity of pairwise throughput dominance", runExtTransitivity},
	{"ext-background", "§6 extension: all implementations vs one common background flow", runExtBackground},
}

// Extensions returns the §6 extension experiments.
func Extensions() []Experiment {
	return append([]Experiment(nil), extensionsList...)
}

func init() {
	// Extensions are addressable through the normal catalog lookup too.
	experimentsList = append(experimentsList, extensionsList...)
}

// DesiredRegion describes an application's acceptable operating region on
// the delay/throughput plane.
type DesiredRegion struct {
	MaxDelayMs float64
	MinMbps    float64
}

// polygon converts the region to a clip rectangle over the observed plane.
func (d DesiredRegion) polygon(maxMbps float64) geom.Polygon {
	return geom.Polygon{
		{X: 0, Y: d.MinMbps},
		{X: d.MaxDelayMs, Y: d.MinMbps},
		{X: d.MaxDelayMs, Y: maxMbps},
		{X: 0, Y: maxMbps},
	}
}

// SelectCCA scores each candidate implementation by the fraction of its
// Performance Envelope samples falling inside the application's desired
// region (§6: "applications can leverage the performance envelope to
// identify the trade-off space they want to operate in"). A candidate
// whose trials fail or yield no samples has no score and is an error.
func SelectCCA(candidates []Impl, region DesiredRegion, net Network) ([]CCAScore, error) {
	n := net.toCore()
	var out []CCAScore
	for _, im := range candidates {
		f, err := flow(im.Stack, im.CCA)
		if err != nil {
			return nil, err
		}
		trials, err := core.TestTrials(f, kernelFlow(f.CCA), n)
		if err != nil {
			return nil, fmt.Errorf("quicbench: %s: %w", im, err)
		}
		pts := (&pe.Envelope{Trials: trials}).AllPoints()
		if len(pts) == 0 {
			return nil, fmt.Errorf("quicbench: %s: %w", im, pe.ErrNoSamples)
		}
		in := 0
		var maxY float64
		for _, p := range pts {
			if p.Y > maxY {
				maxY = p.Y
			}
		}
		poly := region.polygon(maxY + 1)
		for _, p := range pts {
			if poly.Contains(p) {
				in++
			}
		}
		out = append(out, CCAScore{Impl: im, Score: float64(in) / float64(len(pts))})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out, nil
}

// CCAScore is one candidate's fit for a desired region.
type CCAScore struct {
	Impl  Impl
	Score float64
}

// runExtAppSelect demonstrates PE-guided selection for two archetypes: a
// live-streaming app (low delay) and a bulk-download app (high throughput).
func runExtAppSelect(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	net := Network{
		BandwidthMbps: 20, RTT: 10 * time.Millisecond, BufferBDP: 3,
		Duration: cfg.Scale.Duration, Trials: cfg.Scale.Trials, Seed: cfg.Scale.Seed,
	}
	candidates := []Impl{
		{Stack: "kernel", CCA: BBR},
		{Stack: "kernel", CCA: CUBIC},
		{Stack: "kernel", CCA: Reno},
	}
	apps := []struct {
		name   string
		region DesiredRegion
	}{
		{"live streaming (delay < 20 ms, >= 2 Mbps)", DesiredRegion{MaxDelayMs: 20, MinMbps: 2}},
		{"bulk download (>= 8 Mbps, delay <= 60 ms)", DesiredRegion{MaxDelayMs: 60, MinMbps: 8}},
	}
	for _, app := range apps {
		scores, err := SelectCCA(candidates, app.region, net)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%s:\n", app.name)
		for _, sc := range scores {
			fmt.Fprintf(cfg.Out, "  %-14s fit %.2f\n", sc.Impl, sc.Score)
		}
	}
	_, err := fmt.Fprintln(cfg.Out, "expected shape: BBR's low-delay cluster favors live streaming in deep buffers;\nthe buffer-fillers score at least as well for bulk download")
	return err
}

// runExtTransitivity checks §6's transitivity observation: within one CCA
// the dominance relation should be (mostly) transitive; across CCAs it
// need not be.
func runExtTransitivity(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	n := cfg.net(20, 50*time.Millisecond, 5, false) // deep buffer, like §6's example

	// A compact panel mixing CCAs, echoing the paper's lsquic-cubic /
	// msquic-cubic / chromium-bbr example.
	panel := []core.Flow{
		core.Spec("lsquic", stacks.CUBIC),
		core.Spec("msquic", stacks.CUBIC),
		core.Spec("chromium", stacks.BBR),
		core.Spec("quicgo", stacks.CUBIC),
		core.Spec("lsquic", stacks.BBR),
	}
	labels := make([]string, len(panel))
	for i, f := range panel {
		labels[i] = f.Stack.Name + " " + string(f.CCA)
	}
	// wins[i][j] is +1 when i takes more than half against j, -1 when it
	// takes less, and 0 when the share is undefined.
	wins := make([][]int, len(panel))
	for i := range panel {
		wins[i] = make([]int, len(panel))
	}
	for i := range panel {
		for j := i + 1; j < len(panel); j++ {
			sh, err := core.BandwidthShare(panel[i], panel[j], n)
			if err != nil {
				fmt.Fprintf(cfg.Out, "  %s vs %s: %s\n", labels[i], labels[j], report.NA(err))
				continue
			}
			wins[i][j] = -1
			if sh.ShareA > 0.5 {
				wins[i][j] = 1
			}
			wins[j][i] = -wins[i][j]
		}
	}
	triples, violations := 0, 0
	for i := range panel {
		for j := range panel {
			for k := range panel {
				if i == j || j == k || i == k || wins[i][j]*wins[j][k]*wins[i][k] == 0 {
					continue
				}
				triples++
				if wins[i][j] > 0 && wins[j][k] > 0 && wins[i][k] < 0 {
					violations++
					fmt.Fprintf(cfg.Out, "  non-transitive: %s > %s > %s but not %s > %s\n",
						labels[i], labels[j], labels[k], labels[i], labels[k])
				}
			}
		}
	}
	_, err := fmt.Fprintf(cfg.Out, "checked %d ordered triples, %d transitivity violations (deep buffer)\n",
		triples, violations)
	return err
}

// runExtBackground measures every implementation against the same standard
// background flow (kernel CUBIC), giving a cross-CCA-comparable baseline.
func runExtBackground(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	n := cfg.net(20, 50*time.Millisecond, 1, false)
	bg := core.Flow{Stack: stacks.Reference(), CCA: stacks.CUBIC}
	tbl := &report.Table{Header: []string{"Implementation", "Share vs kernel CUBIC", "Mbps"}}
	for _, im := range stacks.AllImplementations() {
		f := core.Flow{Stack: stacks.Get(im.Stack), CCA: im.CCA}
		sh, err := core.BandwidthShare(f, bg, n)
		tbl.AddResult(err, 1, implLabel(im), sh.ShareA, fmt.Sprintf("%.1f", sh.MeanMbps[0]))
	}
	if err := tbl.Render(cfg.Out); err != nil {
		return err
	}
	_, err := fmt.Fprintln(cfg.Out, "a single common competitor makes shares comparable across different CCAs (§6)")
	return err
}
