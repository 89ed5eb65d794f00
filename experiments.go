package quicbench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pe"
	"repro/internal/report"
	"repro/internal/stacks"
)

// Scale sets how heavy an experiment run is. Full reproduces the paper's
// methodology exactly; Quick trades fidelity for turnaround and is the
// default of ExpConfig and the command line.
type Scale struct {
	Duration time.Duration
	Trials   int
	Seed     uint64
}

// The two standard scales.
var (
	Full  = Scale{Duration: 120 * time.Second, Trials: 5, Seed: 1}
	Quick = Scale{Duration: 30 * time.Second, Trials: 2, Seed: 1}
)

// ExpConfig configures an experiment run.
type ExpConfig struct {
	// Out receives the experiment's tables/series (required).
	Out io.Writer
	// PlotDir, when non-empty, receives SVG plots for figure experiments.
	PlotDir string
	// Scale defaults to Quick.
	Scale Scale
}

func (c ExpConfig) withDefaults() ExpConfig {
	if c.Out == nil {
		c.Out = os.Stdout
	}
	if c.Scale.Duration == 0 {
		c.Scale = Quick
	}
	return c
}

// net builds a core.Network at this config's scale.
func (c ExpConfig) net(bwMbps float64, rtt time.Duration, bufferBDP float64, wild bool) core.Network {
	return core.Network{
		BandwidthMbps: bwMbps,
		RTT:           simDur(rtt),
		BufferBDP:     bufferBDP,
		Duration:      simDur(c.Scale.Duration),
		Trials:        c.Scale.Trials,
		Seed:          c.Scale.Seed,
		Wild:          wild,
	}
}

// Experiment is one reproducible table or figure from the paper.
type Experiment struct {
	// ID is the artifact identifier ("fig6", "tab3").
	ID string
	// Title describes the artifact.
	Title string
	// Run executes the experiment and writes the paper-style rows/series.
	Run func(cfg ExpConfig) error
}

// experimentsList is ordered by appearance in the paper.
var experimentsList = []Experiment{
	{"tab1", "Table 1: studied stacks and their available CCAs", runTab1},
	{"tab2", "Table 2: the known IETF QUIC stack landscape and selection criteria", runTab2},
	{"fig1", "Figure 1: single-hull vs clustered PE for quiche CUBIC", runFig1},
	{"fig2", "Figure 2: BBR's two natural clusters (ProbeBW / ProbeRTT)", runFig2},
	{"fig3", "Figure 3: CUBIC and Reno cluster structure", runFig3},
	{"fig4", "Figure 4: choosing k from the retention curve R(k)", runFig4},
	{"fig5", "Figure 5: Conformance and Conformance-T vs BBR cwnd_gain", runFig5},
	{"fig6", "Figure 6: conformance heatmap, 1 BDP vs 5 BDP buffers", runFig6},
	{"fig7", "Figure 7: PEs of low-conformance CUBIC/BBR implementations", runFig7},
	{"fig8", "Figure 8: xquic Reno PEs across buffer sizes", runFig8},
	{"fig9", "Figure 9: mvfst BBR PEs at 1/3/5 BDP", runFig9},
	{"fig10", "Figure 10: xquic BBR PEs at 1/3/5 BDP", runFig10},
	{"fig11", "Figure 11: conformance in the wild (emulated Internet paths)", runFig11},
	{"fig12", "Figure 12: intra-CCA pairwise throughput ratios", runFig12},
	{"fig13", "Figure 13: CUBIC vs BBR in shallow and deep buffers", runFig13},
	{"fig14", "Figure 14: xquic BBR before/after the cwnd-gain fix", runFig14},
	{"fig15", "Figure 15: quiche CUBIC before/after disabling RFC 8312bis", runFig15},
	{"tab3", "Table 3: low-conformance implementation summary (1 BDP)", runTab3},
	{"tab4", "Table 4: fixes for low-conformance implementations", runTab4},
}

// Experiments returns the full catalog in paper order.
func Experiments() []Experiment {
	return append([]Experiment(nil), experimentsList...)
}

// LookupExperiment finds an experiment by ID.
func LookupExperiment(id string) (Experiment, bool) {
	for _, e := range experimentsList {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared helpers ---

// kernelFlow is the kernel reference implementation of one CCA.
func kernelFlow(cca stacks.CCA) core.Flow {
	return core.Flow{Stack: stacks.Reference(), CCA: cca}
}

// refCache memoizes reference trials, or the error that ended them, per
// (reference flow, network) within one experiment run: Fig. 6 alone would
// otherwise recompute the kernel self-competition 22 times. Every cell that
// shares a failed reference reports that failure.
type refCache map[string]struct {
	trials [][]geom.Point
	err    error
}

// trials runs fl's test trials against ref and fetches ref's cached
// self-competition trials. Like sweep, it reports the test trials' failure
// first.
func (rc refCache) trials(fl, ref core.Flow, n core.Network) (test, refTrials [][]geom.Point, err error) {
	if test, err = core.TestTrials(fl, ref, n); err != nil {
		return nil, nil, err
	}
	key := ref.Stack.Name + "|" + string(ref.CCA) + "|" + n.String() + fmt.Sprint(n.Wild, n.Duration, n.Trials, n.Seed)
	v, ok := rc[key]
	if !ok {
		v.trials, v.err = core.ReferenceTrials(ref, n)
		rc[key] = v
	}
	return test, v.trials, v.err
}

// evaluate runs the conformance pipeline for fl against ref with cached
// reference trials. On error the report is undefined.
func evaluate(rc refCache, fl, ref core.Flow, n core.Network) (pe.Report, error) {
	test, refTrials, err := rc.trials(fl, ref, n)
	if err != nil {
		return pe.Report{}, err
	}
	return pe.EvaluateE(test, refTrials, pe.Options{Seed: n.Seed})
}

// envelopePair builds the test and reference PEs for display. The error
// names the first degenerate side; the best-effort envelopes come back
// regardless, for plotting, but numbers read from them are then undefined.
func envelopePair(test, ref [][]geom.Point, seed uint64) (testEnv, refEnv *pe.Envelope, err error) {
	testEnv, terr := pe.BuildE(test, pe.Options{Seed: seed})
	refEnv, err = pe.BuildE(ref, pe.Options{Seed: seed + 1})
	if terr != nil {
		err = fmt.Errorf("test envelope: %w", terr)
	} else if err != nil {
		err = fmt.Errorf("reference envelope: %w", err)
	}
	return testEnv, refEnv, err
}

// orNA formats a defined result, or n/a with the reason when err is set.
func orNA(err error, format string, args ...any) string {
	if err != nil {
		return report.NA(err)
	}
	return fmt.Sprintf(format, args...)
}

// printNA ends an experiment whose remaining output is undefined: the
// prefix, then n/a with the reason.
func printNA(cfg ExpConfig, prefix string, err error) error {
	_, werr := fmt.Fprintln(cfg.Out, prefix+report.NA(err))
	return werr
}

// savePlot writes an SVG when plotting is enabled.
func savePlot(cfg ExpConfig, name string, plot *report.SVGPlot) error {
	if cfg.PlotDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.PlotDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.PlotDir, name))
	if err != nil {
		return err
	}
	err = plot.Render(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(cfg.Out, "  [plot written: %s]\n", filepath.Join(cfg.PlotDir, name))
	return err
}

// peSeries adds an envelope to a plot as a named series.
func peSeries(plot *report.SVGPlot, name string, env *pe.Envelope) {
	plot.AddSeries(name, env.AllPoints(), env.Hulls)
}

// implLabel formats "stack cca" labels consistently.
func implLabel(im stacks.Impl) string { return im.Stack + " " + string(im.CCA) }
