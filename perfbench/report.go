package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// print writes the human-readable report; every line starts with '#'
// so the result line stays the only JSON object on standard output.
func (r *report) print(w io.Writer) {
	mode := "untraced (end-to-end)"
	if r.Traced {
		mode = "traced (per-layer)"
	}
	h := r.Host
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g %s\n", r.Workload, r.Seed, r.Seconds, mode)
	fmt.Fprintf(w, "# host nproc=%d GOMAXPROCS=%d %s %s storage=%s fs=%s commit=%s source=%s\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.OS, h.Storage, h.Filesystem, h.Commit, h.Source)
	params, _ := json.Marshal(r.Params)
	fmt.Fprintf(w, "# params %s\n", params)
	ph, _ := json.Marshal(r.Phases)
	fmt.Fprintf(w, "# phase seconds %s\n", ph)
	fmt.Fprintf(w, "# rounds warmup=%d measured=%d traced=%d\n", r.Rounds.Warmup, r.Rounds.Measured, r.Rounds.Traced)
	for _, name := range r.Order {
		m := r.Result.Metrics[name]
		fmt.Fprintf(w, "#   %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	if len(r.SelfTimes) > 0 {
		fmt.Fprintf(w, "# self time per traced round (tolerance ±%.0f%% of round wall)\n", selfTolerance*100)
		for _, s := range r.SelfTimes {
			fmt.Fprintf(w, "#   %-20s %10.3f ms %6.1f%%  %s\n", s.Layer, s.MsPer, 100*s.Share, s.Detail)
		}
	}
	g := r.Gate
	fmt.Fprintf(w, "# gate ok=%v fingerprint=%s reference=%s (%d rounds) pinned=%s want=%s saturations=%d unavailable=%d\n",
		g.OK, g.Fingerprint, g.Reference, g.Rounds, g.Pinned, g.PinnedWant, g.Saturations, g.Unavailable)
	if g.SelfError != "" {
		fmt.Fprintf(w, "# gate self-time: %s\n", g.SelfError)
	}
	if g.Err != "" {
		fmt.Fprintf(w, "# gate error: %s\n", g.Err)
	}
}

// save writes the full report as JSON under dir.
func (r *report) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, map[bool]int{false: 0, true: 1}[r.Traced])
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
