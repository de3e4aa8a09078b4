// Span-tree rendering: folded-stack output (one line per stack path,
// flamegraph.pl / speedscope compatible) and a human-readable waterfall
// that shows phase start offsets, durations, and a proportional bar.
// Rendered by `cosim trace`.

package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteFolded renders the tree rooted at root as folded stacks: each
// line is "a;b;c <self-wall-ns>", where self time is the span's wall
// time not covered by its non-concurrent children. Concurrent children
// (shard workers) get their own stack lines but do not subtract from
// the parent, since they overlap it.
func WriteFolded(w io.Writer, root *Span) error {
	if root == nil {
		return nil
	}
	var walk func(path string, s *Span) error
	walk = func(path string, s *Span) error {
		if s == nil {
			return nil
		}
		name := strings.ReplaceAll(s.Name, ";", ",")
		if name == "" {
			name = "(unnamed)"
		}
		full := name
		if path != "" {
			full = path + ";" + name
		}
		self := s.WallNS - min(s.SerialChildSum(), s.WallNS)
		if self > 0 || len(s.Children) == 0 {
			if _, err := fmt.Fprintf(w, "%s %d\n", full, self); err != nil {
				return err
			}
		}
		for _, c := range s.Children {
			if err := walk(full, c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk("", root)
}

// WriteWaterfall renders the tree as an indented timeline: one row per
// span with its offset from the root start (when both carry wall-clock
// anchors), duration, process CPU time, a proportional bar, and attributes.
func WriteWaterfall(w io.Writer, root *Span) error {
	if root == nil {
		return nil
	}
	const barWidth = 24
	total := root.WallNS
	if total == 0 {
		total = 1
	}
	var walk func(s *Span, prefix string, last bool) error
	walk = func(s *Span, prefix string, last bool) error {
		if s == nil {
			return nil
		}
		branch, childPrefix := "", ""
		if s != root {
			if last {
				branch, childPrefix = prefix+"└─ ", prefix+"   "
			} else {
				branch, childPrefix = prefix+"├─ ", prefix+"│  "
			}
		}
		off := ""
		if s.StartUnixNS > 0 && root.StartUnixNS > 0 && s.StartUnixNS >= root.StartUnixNS {
			off = fmt.Sprintf(" @+%s", fmtNS(uint64(s.StartUnixNS-root.StartUnixNS)))
		}
		cpu := ""
		if s.ProcessCPUNS > 0 {
			cpu = fmt.Sprintf(" process_cpu=%s", fmtNS(s.ProcessCPUNS))
		}
		fill := int(uint64(barWidth) * s.WallNS / total)
		if fill > barWidth {
			fill = barWidth
		}
		if fill == 0 && s.WallNS > 0 {
			fill = 1
		}
		bar := strings.Repeat("█", fill) + strings.Repeat("·", barWidth-fill)
		attrs := ""
		if len(s.Attrs) > 0 {
			keys := make([]string, 0, len(s.Attrs))
			for k := range s.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, 0, len(keys))
			for _, k := range keys {
				parts = append(parts, k+"="+s.Attrs[k])
			}
			attrs = "  {" + strings.Join(parts, " ") + "}"
		}
		if _, err := fmt.Fprintf(w, "%-48s %s %10s%s%s%s\n",
			branch+s.Name, bar, fmtNS(s.WallNS), off, cpu, attrs); err != nil {
			return err
		}
		for i, c := range s.Children {
			if err := walk(c, childPrefix, i == len(s.Children)-1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root, "", true)
}

// fmtNS renders a nanosecond quantity at a human scale.
func fmtNS(ns uint64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
