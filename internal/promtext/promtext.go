// Package promtext implements the Prometheus text exposition format
// (version 0.0.4): a Writer that renders metric families with escaped
// labels and histogram triplets, and a Parser that reads an exposition
// back into samples for programmatic assertions (cmd/promcheck, the CI
// smoke test). Only the subset the Starlink collector emits is
// supported: counter, gauge and histogram families with optional HELP
// lines.
package promtext

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Label is one name="value" pair. Writers emit labels in the order
// given, so callers control series identity deterministically.
type Label struct {
	Name  string
	Value string
}

// Bucket is one cumulative histogram bucket: Count samples were ≤ Le
// (in the exposition's unit, conventionally seconds). Use math.Inf(1)
// for the +Inf bucket; Writer adds it automatically if absent.
type Bucket struct {
	Le    float64
	Count uint64
}

// Writer renders an exposition incrementally. The zero value is not
// usable; construct with NewWriter.
type Writer struct {
	w   io.Writer
	err error
}

// NewWriter returns a Writer emitting to w. Errors from w are sticky
// and reported by Err.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// Err returns the first write error, if any.
func (w *Writer) Err() error { return w.err }

func (w *Writer) printf(format string, args ...any) {
	if w.err != nil {
		return
	}
	_, w.err = fmt.Fprintf(w.w, format, args...)
}

// Family opens a metric family: a # HELP line (when help is non-empty)
// and a # TYPE line. Call before the family's samples.
func (w *Writer) Family(name, help, typ string) {
	if help != "" {
		w.printf("# HELP %s %s\n", name, escapeHelp(help))
	}
	w.printf("# TYPE %s %s\n", name, typ)
}

// Sample emits one sample line: name{labels} value.
func (w *Writer) Sample(name string, labels []Label, value float64) {
	w.printf("%s%s %s\n", name, formatLabels(labels), formatValue(value))
}

// HistogramSample emits the conventional histogram triplet for one
// series: name_bucket lines (cumulative, with a trailing +Inf bucket
// added if absent), name_sum and name_count.
func (w *Writer) HistogramSample(name string, labels []Label, buckets []Bucket, sum float64, count uint64) {
	hasInf := false
	for _, b := range buckets {
		ls := append(append(make([]Label, 0, len(labels)+1), labels...),
			Label{Name: "le", Value: formatLe(b.Le)})
		w.Sample(name+"_bucket", ls, float64(b.Count))
		if math.IsInf(b.Le, 1) {
			hasInf = true
		}
	}
	if !hasInf {
		ls := append(append(make([]Label, 0, len(labels)+1), labels...),
			Label{Name: "le", Value: "+Inf"})
		w.Sample(name+"_bucket", ls, float64(count))
	}
	w.Sample(name+"_sum", labels, sum)
	w.Sample(name+"_count", labels, float64(count))
}

func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatLe renders a bucket bound; +Inf uses the conventional literal.
func formatLe(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// The escapers work byte by byte, so text that is not UTF-8 passes
// through unchanged.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	// helpUnescaper reads helpEscaper's output back; any other escape
	// stays as written.
	helpUnescaper = strings.NewReplacer(`\\`, `\`, `\n`, "\n")
)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// Sample is one parsed sample line.
type Sample struct {
	// Name is the sample's metric name (including any _bucket/_sum/
	// _count suffix).
	Name string
	// Labels are the sample's label pairs.
	Labels map[string]string
	// Value is the sample value.
	Value float64
}

// Exposition is a parsed text exposition.
type Exposition struct {
	// Types maps family name → declared TYPE.
	Types map[string]string
	// Help maps family name → HELP text.
	Help map[string]string
	// Samples lists every sample line in document order.
	Samples []Sample
}

// Parse reads a text exposition, validating line syntax, label quoting
// and numeric values. It does not require TYPE lines but records the
// ones present.
func Parse(r io.Reader) (*Exposition, error) {
	exp := &Exposition{Types: map[string]string{}, Help: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	sc.Split(splitLF)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimRight(sc.Text(), " \t\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			// A HELP text keeps its trailing blanks: the raw line.
			if err := exp.parseComment(sc.Text()); err != nil {
				return nil, fmt.Errorf("promtext: line %d: %w", lineno, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("promtext: line %d: %w", lineno, err)
		}
		exp.Samples = append(exp.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("promtext: %w", err)
	}
	return exp, nil
}

// splitLF splits lines at '\n' alone: a '\r' ending a HELP text is
// part of it.
func splitLF(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

func (e *Exposition) parseComment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		typ := strings.TrimRight(fields[3], " \t\r")
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", typ)
		}
		e.Types[fields[2]] = typ
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		help := ""
		if len(fields) == 4 {
			help = helpUnescaper.Replace(fields[3])
		}
		e.Help[fields[2]] = help
	}
	return nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	// Metric name runs to '{' or whitespace.
	end := strings.IndexAny(rest, "{ \t")
	if end <= 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = rest[:end]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[end:]
	if rest[0] == '{' {
		close := -1
		inQuote, esc := false, false
		for i := 1; i < len(rest); i++ {
			c := rest[i]
			switch {
			case esc:
				esc = false
			case inQuote && c == '\\':
				esc = true
			case c == '"':
				inQuote = !inQuote
			case !inQuote && c == '}':
				close = i
			}
			if close >= 0 {
				break
			}
		}
		if close < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[1:close], s.Labels); err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		rest = rest[close+1:]
	}
	rest = strings.TrimLeft(rest, " \t")
	// Drop an optional timestamp.
	if sp := strings.IndexAny(rest, " \t"); sp >= 0 {
		rest = rest[:sp]
	}
	if rest == "" {
		return s, fmt.Errorf("missing value in %q", line)
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", rest, line)
	}
	s.Value = v
	return s, nil
}

func parseLabels(s string, into map[string]string) error {
	i := 0
	for i < len(s) {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return fmt.Errorf("malformed label pair %q", s[i:])
		}
		name := strings.TrimSpace(s[i : i+eq])
		if !validName(name) {
			return fmt.Errorf("invalid label name %q", name)
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return fmt.Errorf("unquoted label value for %q", name)
		}
		i++
		var sb strings.Builder
		for {
			if i >= len(s) {
				return fmt.Errorf("unterminated label value for %q", name)
			}
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return fmt.Errorf("dangling escape in label %q", name)
				}
				switch s[i+1] {
				case '\\':
					sb.WriteByte('\\')
				case '"':
					sb.WriteByte('"')
				case 'n':
					sb.WriteByte('\n')
				default:
					return fmt.Errorf("unknown escape \\%c in label %q", s[i+1], name)
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			sb.WriteByte(c)
			i++
		}
		into[name] = sb.String()
		if i < len(s) {
			if s[i] != ',' {
				return fmt.Errorf("expected ',' after label %q", name)
			}
			i++
		}
	}
	return nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Find returns the samples named name whose labels include every pair
// in match (nil matches all), in document order.
func (e *Exposition) Find(name string, match map[string]string) []Sample {
	var out []Sample
	for _, s := range e.Samples {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, s)
		}
	}
	return out
}

// Names lists the distinct sample names present, sorted.
func (e *Exposition) Names() []string {
	seen := map[string]bool{}
	for _, s := range e.Samples {
		seen[s.Name] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
