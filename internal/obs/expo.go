package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4): the subset this repo
// emits — counter, gauge, and histogram families with # HELP / # TYPE
// headers — plus a strict parser used by the handler's golden test and
// the CI scrape check (tools/obscheck), so "the exposition stays
// parseable" is enforced by the same code in both places.

// WriteProm renders the snapshot in Prometheus text format.
func (s Snapshot) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, c := range s.Counters {
		writeHeader(bw, c.Name, c.Help, "counter")
		fmt.Fprintf(bw, "%s %d\n", c.Name, c.Value)
	}
	for _, f := range s.Families {
		writeHeader(bw, f.Name, f.Help, "counter")
		for _, sample := range f.Samples {
			fmt.Fprintf(bw, "%s{%s} %d\n", f.Name, sample.Labels, sample.Value)
		}
	}
	for _, g := range s.Gauges {
		writeHeader(bw, g.Name, g.Help, "gauge")
		fmt.Fprintf(bw, "%s %d\n", g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		writeHeader(bw, h.Name, h.Help, "histogram")
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", h.Name, formatFloat(bound), cum)
		}
		cum += h.Counts[len(h.Bounds)]
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", h.Name, cum)
		fmt.Fprintf(bw, "%s_sum %s\n", h.Name, formatFloat(h.Sum))
		fmt.Fprintf(bw, "%s_count %d\n", h.Name, h.Count)
	}
	return bw.Flush()
}

func writeHeader(w io.Writer, name, help, kind string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
}

// escapeHelp escapes backslashes and newlines per the exposition spec.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Sample is one parsed exposition line: a metric name, its (raw) label
// block, and the value.
type Sample struct {
	Name   string
	Labels string // raw text inside {...}, "" when absent
	Value  float64
}

// Exposition is the parsed form of a /metrics page.
type Exposition struct {
	// Types maps each declared family name to its TYPE (counter, gauge,
	// histogram, summary, untyped).
	Types map[string]string
	// Samples holds every sample line in input order.
	Samples []Sample
}

// Families returns the number of declared metric families.
func (e *Exposition) Families() int { return len(e.Types) }

// HasPrefix reports whether any declared family name starts with prefix.
func (e *Exposition) HasPrefix(prefix string) bool {
	for name := range e.Types {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// validTypes are the TYPE values the exposition format permits.
var validTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true,
	"summary": true, "untyped": true,
}

// ParseExposition parses Prometheus text format strictly: every line
// must be a well-formed comment, TYPE/HELP header, or sample; histogram
// families must have consistent _count and +Inf bucket values. The
// first malformed line fails the parse.
func ParseExposition(r io.Reader) (*Exposition, error) {
	exp := &Exposition{Types: map[string]string{}}
	infCount := map[string]float64{}   // histogram name -> +Inf bucket value
	countVal := map[string]float64{}   // histogram name -> _count value
	lastBucket := map[string]float64{} // histogram name -> previous cumulative bucket

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseHeader(line, exp); err != nil {
				return nil, fmt.Errorf("obs: exposition line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %w", lineNo, err)
		}
		exp.Samples = append(exp.Samples, s)

		// Histogram shape checks, driven by declared types.
		if base, ok := strings.CutSuffix(s.Name, "_bucket"); ok && exp.Types[base] == "histogram" {
			le := labelValue(s.Labels, "le")
			if le == "" {
				return nil, fmt.Errorf("obs: exposition line %d: %s_bucket without le label", lineNo, base)
			}
			if s.Value < lastBucket[base] {
				return nil, fmt.Errorf("obs: exposition line %d: %s buckets not cumulative", lineNo, base)
			}
			lastBucket[base] = s.Value
			if le == "+Inf" {
				infCount[base] = s.Value
			}
		}
		if base, ok := strings.CutSuffix(s.Name, "_count"); ok && exp.Types[base] == "histogram" {
			countVal[base] = s.Value
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, typ := range exp.Types {
		if typ != "histogram" {
			continue
		}
		inf, okInf := infCount[name]
		cnt, okCnt := countVal[name]
		if !okInf || !okCnt {
			return nil, fmt.Errorf("obs: histogram %s missing +Inf bucket or _count", name)
		}
		if inf != cnt {
			return nil, fmt.Errorf("obs: histogram %s: +Inf bucket %g != count %g", name, inf, cnt)
		}
	}
	return exp, nil
}

// parseHeader validates a # comment line, recording TYPE declarations.
func parseHeader(line string, exp *Exposition) error {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], fields[3]
		if !nameRE.MatchString(name) {
			return fmt.Errorf("invalid family name %q", name)
		}
		if !validTypes[typ] {
			return fmt.Errorf("unknown metric type %q", typ)
		}
		if prev, ok := exp.Types[name]; ok && prev != typ {
			return fmt.Errorf("family %s declared both %s and %s", name, prev, typ)
		}
		exp.Types[name] = typ
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		if !nameRE.MatchString(fields[2]) {
			return fmt.Errorf("invalid family name %q", fields[2])
		}
	}
	return nil
}

// parseSample parses `name{labels} value [timestamp]`.
func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexAny(rest, "{ \t"); i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if !nameRE.MatchString(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label block in %q", line)
		}
		s.Labels = rest[1:end]
		if err := validateLabels(s.Labels); err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", fields[0], line)
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q in %q", fields[1], line)
		}
	}
	return s, nil
}

// parseValue accepts decimal floats plus the exposition spellings of
// infinity and NaN.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// validateLabels checks `k="v",k2="v2"` shape.
func validateLabels(block string) error {
	if block == "" {
		return nil
	}
	for _, pair := range splitLabels(block) {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || !nameRE.MatchString(k) {
			return fmt.Errorf("malformed label %q", pair)
		}
		if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
			return fmt.Errorf("unquoted label value %q", pair)
		}
	}
	return nil
}

// splitLabels splits on commas outside quotes.
func splitLabels(block string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(block); i++ {
		switch block[i] {
		case '"':
			if i == 0 || block[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, block[start:i])
				start = i + 1
			}
		}
	}
	return append(out, block[start:])
}

// labelValue extracts one label's (unescaped) value from a raw block.
func labelValue(block, key string) string {
	for _, pair := range splitLabels(block) {
		k, v, ok := strings.Cut(pair, "=")
		if ok && k == key && len(v) >= 2 {
			return strings.ReplaceAll(v[1:len(v)-1], `\"`, `"`)
		}
	}
	return ""
}
