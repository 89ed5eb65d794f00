package quicbench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/stacks"
)

// runFig5 sweeps kernel BBR's cwnd_gain and reports Conformance and
// Conformance-T against the vanilla kernel, reproducing the paper's
// metric-calibration experiment.
func runFig5(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	n := cfg.net(20, 10*time.Millisecond, 1, false)
	rc := refCache{}

	tbl := &report.Table{Header: []string{"cwnd_gain", "Conf", "Conf-T", "Δ-tput (Mbps)", "Δ-delay (ms)"}}
	for _, gain := range []float64{1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0} {
		variant := stacks.WithBBRCwndGain(gain)
		rep, err := evaluate(rc, core.Flow{Stack: variant, CCA: stacks.BBR}, kernelFlow(stacks.BBR), n)
		tbl.AddResult(err, 1, fmt.Sprintf("%.1f", gain), rep.Conformance, rep.ConformanceT,
			fmt.Sprintf("%+.1f", rep.DeltaThroughputMbps), fmt.Sprintf("%+.1f", rep.DeltaDelayMs))
	}
	if err := tbl.Render(cfg.Out); err != nil {
		return err
	}
	_, err := fmt.Fprintln(cfg.Out,
		"expected shape: Conf peaks at gain 2.0 and decays with distance; Conf-T stays high;\nΔ-tput and Δ-delay grow with the gain (the paper's Fig. 5)")
	return err
}

// conformanceHeatmap evaluates every QUIC implementation under one network
// and returns a stacks x CCA heatmap.
func conformanceHeatmap(cfg ExpConfig, rc refCache, n core.Network, title string) (*report.Heatmap, error) {
	stackNames := []string{}
	for _, s := range stacks.QUICStacks() {
		stackNames = append(stackNames, s.Name)
	}
	cols := []string{"cubic", "bbr", "reno"}
	h := report.NewHeatmap(title, stackNames, cols)
	for r, name := range stackNames {
		s := stacks.Get(name)
		for c, ccaName := range cols {
			cca := stacks.CCA(ccaName)
			if !s.Has(cca) {
				continue
			}
			rep, err := evaluate(rc, core.Flow{Stack: s, CCA: cca}, kernelFlow(cca), n)
			h.Values[r][c], h.Errs[r][c] = rep.Conformance, err
		}
	}
	return h, nil
}

// runFig6 produces the two conformance heatmaps: deep (5 BDP) and shallow
// (1 BDP) buffers.
func runFig6(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	rc := refCache{}
	for _, bdp := range []float64{5, 1} {
		n := cfg.net(20, 10*time.Millisecond, bdp, false)
		label := "shallow"
		if bdp > 2 {
			label = "deep"
		}
		h, err := conformanceHeatmap(cfg, rc, n,
			fmt.Sprintf("Conformance, %.0f BDP (%s) buffer — %s", bdp, label, n.String()))
		if err != nil {
			return err
		}
		if err := h.Render(cfg.Out); err != nil {
			return err
		}
		fmt.Fprintln(cfg.Out)
	}
	_, err := fmt.Fprintln(cfg.Out, "expected shape: most implementations conformant at 1 BDP; conformance drops in deep buffers")
	return err
}

// runFig11 repeats the conformance measurement on emulated Internet paths
// (wild mode: jittery 100 Mbps, 50 ms paths as seen from AWS).
func runFig11(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	rc := refCache{}
	n := cfg.net(100, 50*time.Millisecond, 1, true)
	h, err := conformanceHeatmap(cfg, rc, n, "Conformance in the wild (emulated AWS paths, 100 Mbps, 50 ms)")
	if err != nil {
		return err
	}
	if err := h.Render(cfg.Out); err != nil {
		return err
	}
	_, err = fmt.Fprintln(cfg.Out, "expected shape: similar to the 1 BDP testbed heatmap (Fig. 6b)")
	return err
}

// fairnessMatrix runs all pairwise bandwidth-share experiments among the
// given implementations and returns the share heatmap (row vs column:
// cell = row's share).
func fairnessMatrix(cfg ExpConfig, impls []core.Flow, labels []string, n core.Network, title string) *report.Heatmap {
	h := report.NewHeatmap(title, labels, labels)
	for i := range impls {
		for j := i; j < len(impls); j++ {
			sh, err := core.BandwidthShare(impls[i], impls[j], n)
			h.Values[i][j], h.Errs[i][j] = sh.ShareA, err
			h.Values[j][i], h.Errs[j][i] = 1-sh.ShareA, err
		}
	}
	return h
}

// intraCCAFlows returns the kernel + QUIC implementations of one CCA.
func intraCCAFlows(cca stacks.CCA) ([]core.Flow, []string) {
	flows := []core.Flow{{Stack: stacks.Reference(), CCA: cca}}
	labels := []string{"tcp " + string(cca)}
	for _, im := range stacks.Implementations(cca) {
		flows = append(flows, core.Flow{Stack: stacks.Get(im.Stack), CCA: cca})
		labels = append(labels, im.Stack)
	}
	return flows, labels
}

// runFig12 produces the three intra-CCA throughput-ratio matrices
// (CUBIC, BBR, Reno) at 20 Mbps, 50 ms, 1 BDP.
func runFig12(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	n := cfg.net(20, 50*time.Millisecond, 1, false)
	for _, cca := range stacks.AllCCAs {
		flows, labels := intraCCAFlows(cca)
		h := fairnessMatrix(cfg, flows, labels, n,
			fmt.Sprintf("Throughput share, %s implementations (row's share vs column), %s", cca, n.String()))
		if err := h.Render(cfg.Out); err != nil {
			return err
		}
		fmt.Fprintln(cfg.Out)
	}
	_, err := fmt.Fprintln(cfg.Out, "expected shape: chromium/quiche/xquic CUBIC, mvfst/xquic BBR and xquic Reno\ndeviate from 0.50 against other implementations of the same CCA")
	return err
}

// runFig13 produces the CUBIC x BBR cross matrices in shallow and deep
// buffers: cell = BBR implementation's share against the CUBIC
// implementation.
func runFig13(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	cubicFlows, cubicLabels := intraCCAFlows(stacks.CUBIC)
	bbrFlows, bbrLabels := intraCCAFlows(stacks.BBR)

	for _, bdp := range []float64{1, 5} {
		n := cfg.net(20, 50*time.Millisecond, bdp, false)
		label := "shallow"
		if bdp > 2 {
			label = "deep"
		}
		h := report.NewHeatmap(
			fmt.Sprintf("BBR share vs CUBIC (%s buffer, %s); >0.5 = BBR wins", label, n.String()),
			bbrLabels, cubicLabels)
		for r, bf := range bbrFlows {
			for c, cf := range cubicFlows {
				sh, err := core.BandwidthShare(bf, cf, n)
				h.Values[r][c], h.Errs[r][c] = sh.ShareA, err
			}
		}
		if err := h.Render(cfg.Out); err != nil {
			return err
		}
		fmt.Fprintln(cfg.Out)
	}
	_, err := fmt.Fprintln(cfg.Out, "expected shape: BBR wins in shallow buffers, CUBIC wins in deep buffers —\nexcept the low-conformance implementations (xquic CUBIC shallow; mvfst/xquic BBR deep)")
	return err
}

// tab3Impls are the low-conformance implementations of Table 3.
var tab3Impls = []stacks.Impl{
	{Stack: "chromium", CCA: stacks.CUBIC},
	{Stack: "neqo", CCA: stacks.CUBIC},
	{Stack: "quiche", CCA: stacks.CUBIC},
	{Stack: "xquic", CCA: stacks.CUBIC},
	{Stack: "mvfst", CCA: stacks.BBR},
	{Stack: "xquic", CCA: stacks.BBR},
	{Stack: "xquic", CCA: stacks.Reno},
}

// runTab3 reproduces the low-conformance summary at 1 BDP.
func runTab3(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	rc := refCache{}
	n := cfg.net(20, 10*time.Millisecond, 1, false)
	tbl := &report.Table{Header: []string{"Stack", "Type", "Conf-old", "Conf", "Conf-T", "Δ-tput", "Δ-delay"}}
	for _, im := range tab3Impls {
		rep, err := evaluate(rc, core.Flow{Stack: stacks.Get(im.Stack), CCA: im.CCA}, kernelFlow(im.CCA), n)
		tbl.AddResult(err, 2, im.Stack, string(im.CCA), rep.ConformanceOld, rep.Conformance, rep.ConformanceT,
			fmt.Sprintf("%+.1f Mbps", rep.DeltaThroughputMbps),
			fmt.Sprintf("%+.1f ms", rep.DeltaDelayMs))
	}
	return tbl.Render(cfg.Out)
}

// runTab4 reproduces the fix summary: original vs modified conformance for
// every §5 fix, plus the xquic-CUBIC-vs-no-HyStart comparison.
func runTab4(cfg ExpConfig) error {
	cfg = cfg.withDefaults()
	rc := refCache{}
	n := cfg.net(20, 10*time.Millisecond, 1, false)
	tbl := &report.Table{Header: []string{"Stack", "Type", "Conf", "Conf-T", "Conf'", "Conf-T'", "Remarks"}}

	fixes := []struct {
		stack  string
		cca    stacks.CCA
		remark string
	}{
		{"chromium", stacks.CUBIC, "emulated flows 2 -> 1"},
		{"mvfst", stacks.BBR, "pacing scale 1.2 -> 1.0"},
		{"xquic", stacks.BBR, "cwnd gain 2.5 -> 2.0"},
		{"quiche", stacks.CUBIC, "RFC 8312bis rollback disabled"},
	}
	for _, fx := range fixes {
		fixedStack, ok := stacks.Fixed(fx.stack, fx.cca)
		if !ok {
			return fmt.Errorf("tab4: no fix registered for %s %s", fx.stack, fx.cca)
		}
		ref := kernelFlow(fx.cca)
		orig, err := evaluate(rc, core.Flow{Stack: stacks.Get(fx.stack), CCA: fx.cca}, ref, n)
		fixed, ferr := evaluate(rc, core.Flow{Stack: fixedStack, CCA: fx.cca}, ref, n)
		if err == nil && ferr != nil {
			err = fmt.Errorf("fixed variant: %w", ferr)
		}
		tbl.AddResult(err, 2, fx.stack, string(fx.cca), orig.Conformance, orig.ConformanceT,
			fixed.Conformance, fixed.ConformanceT, fx.remark)
	}

	// xquic CUBIC: no fix; instead compare against a HyStart-less kernel.
	xquic := core.Spec("xquic", stacks.CUBIC)
	orig, err := evaluate(rc, xquic, kernelFlow(stacks.CUBIC), n)
	vsNoHS, nerr := evaluate(rc, xquic, core.Flow{Stack: stacks.ReferenceNoHyStart(), CCA: stacks.CUBIC}, n)
	if err == nil && nerr != nil {
		err = fmt.Errorf("vs no-HyStart reference: %w", nerr)
	}
	tbl.AddResult(err, 2, "xquic", "cubic", orig.Conformance, orig.ConformanceT,
		vsNoHS.Conformance, vsNoHS.ConformanceT, "vs TCP CUBIC w/o HyStart (no fix applied)")

	// Unfixable rows, for completeness.
	for _, im := range []stacks.Impl{{Stack: "xquic", CCA: stacks.Reno}, {Stack: "neqo", CCA: stacks.CUBIC}} {
		rep, err := evaluate(rc, core.Flow{Stack: stacks.Get(im.Stack), CCA: im.CCA}, kernelFlow(im.CCA), n)
		tbl.AddResult(err, 2, im.Stack, string(im.CCA), rep.Conformance, rep.ConformanceT, "-", "-",
			"CCA verified compliant; stack-level root cause")
	}
	return tbl.Render(cfg.Out)
}
