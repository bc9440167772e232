// Package promtext implements the Prometheus text exposition format
// (version 0.0.4): a Writer that renders metric families with escaped
// labels and histogram triplets, and a Parser that reads an exposition
// back into samples for programmatic assertions (the collector's tests
// and starlinkd's smoke test), holding each family to one group of
// lines. Only the subset the Starlink collector emits is supported:
// counter, gauge and histogram families with optional HELP lines.
package promtext

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
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

// Writer renders an exposition incrementally. Each call renders into
// one buffer the Writer reuses, with strconv's appenders (which write
// the infinities and NaN as the format's +Inf, -Inf and NaN), and
// writes it out whole. The zero value is not usable; construct with NewWriter.
type Writer struct {
	w   io.Writer
	buf []byte
	// lbl holds a histogram series' rendered labels, appended to each of
	// its lines.
	lbl []byte
	err error
}

// NewWriter returns a Writer emitting to w. Errors from w are sticky
// and reported by Err.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// Err returns the first write error, if any.
func (w *Writer) Err() error { return w.err }

// flush writes the rendered lines out and empties the buffer.
func (w *Writer) flush() {
	if w.err == nil {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// Family opens a metric family: a # HELP line (when help is non-empty)
// and a # TYPE line. Call before the family's samples.
func (w *Writer) Family(name, help, typ string) {
	if help != "" {
		w.buf = append(append(append(w.buf, "# HELP "...), name...), ' ')
		w.buf = append(appendEscaped(w.buf, help, false), '\n')
	}
	w.buf = append(append(append(append(append(w.buf, "# TYPE "...), name...), ' '), typ...), '\n')
	w.flush()
}

// Sample emits one sample line: name{labels} value.
func (w *Writer) Sample(name string, labels []Label, value float64) {
	w.lbl = appendLabels(w.lbl[:0], labels)
	w.appendSeries(name, "", value)
	w.flush()
}

// HistogramSample emits the conventional histogram triplet for one
// series: name_bucket lines (cumulative, with a trailing +Inf bucket
// added if absent), name_sum and name_count. The labels are rendered
// once; each bucket line appends its le.
func (w *Writer) HistogramSample(name string, labels []Label, buckets []Bucket, sum float64, count uint64) {
	w.lbl = appendLabels(w.lbl[:0], labels)
	hasInf := false
	for _, b := range buckets {
		w.appendBucket(name, b.Le, b.Count)
		hasInf = hasInf || math.IsInf(b.Le, 1)
	}
	if !hasInf {
		w.appendBucket(name, math.Inf(1), count)
	}
	w.appendSeries(name, "_sum", sum)
	w.appendSeries(name, "_count", float64(count))
	w.flush()
}

// appendSeries renders "name+suffix{labels} value\n" with the labels in
// w.lbl.
func (w *Writer) appendSeries(name, suffix string, v float64) {
	w.buf = append(append(w.buf, name...), suffix...)
	if len(w.lbl) > 0 {
		w.buf = append(append(append(w.buf, '{'), w.lbl...), '}')
	}
	w.buf = append(strconv.AppendFloat(append(w.buf, ' '), v, 'g', -1, 64), '\n')
}

// appendBucket renders one name_bucket line: the labels in w.lbl, then le.
func (w *Writer) appendBucket(name string, le float64, n uint64) {
	w.buf = append(append(append(w.buf, name...), "_bucket{"...), w.lbl...)
	if len(w.lbl) > 0 {
		w.buf = append(w.buf, ',')
	}
	w.buf = append(strconv.AppendFloat(append(w.buf, `le="`...), le, 'g', -1, 64), `"} `...)
	w.buf = append(strconv.AppendUint(w.buf, n, 10), '\n')
}

// appendLabels renders name="value" pairs, comma-separated.
func appendLabels(b []byte, labels []Label) []byte {
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(b, l.Name...), `="`...)
		b = append(appendEscaped(b, l.Value, true), '"')
	}
	return b
}

// appendEscaped escapes a backslash and a newline, and in a label value
// a double quote. It works byte by byte, so text that is not UTF-8
// passes through unchanged.
func appendEscaped(b []byte, s string, label bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			b = append(b, `\\`...)
		case c == '\n':
			b = append(b, `\n`...)
		case c == '"' && label:
			b = append(b, `\"`...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// helpUnescaper reads appendEscaped's HELP text back; any other escape
// stays as written.
var helpUnescaper = strings.NewReplacer(`\\`, `\`, `\n`, "\n")

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
// ones present. A family's HELP, TYPE and sample lines must be one
// contiguous group, with one TYPE, before its samples; a histogram's
// _bucket, _sum and _count samples belong to its family.
func Parse(r io.Reader) (*Exposition, error) {
	exp := &Exposition{Types: map[string]string{}, Help: map[string]string{}}
	// current is the family of the lines being read; ended holds the
	// families another family's lines came after.
	current, ended, sampled := "", map[string]bool{}, map[string]bool{}
	enter := func(family string) error {
		if family != current && ended[family] {
			return fmt.Errorf("family %s is not one group: its lines resume after another family's", family)
		}
		ended[current], current = true, family
		return nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	sc.Split(splitLF)
	for lineno := 1; sc.Scan(); lineno++ {
		line := strings.TrimRight(sc.Text(), " \t\r")
		if line == "" {
			continue
		}
		var err error
		if strings.HasPrefix(line, "#") {
			// A HELP text keeps its trailing blanks: the raw line.
			var family string
			if family, err = exp.parseComment(sc.Text(), sampled); err == nil && family != "" {
				err = enter(family)
			}
		} else {
			var s Sample
			if s, err = parseSample(line); err == nil {
				exp.Samples = append(exp.Samples, s)
				err = enter(exp.family(s.Name))
				sampled[current] = true
			}
		}
		if err != nil {
			return nil, fmt.Errorf("promtext: line %d: %w", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("promtext: %w", err)
	}
	return exp, nil
}

// family names the family a sample belongs to: a histogram's _bucket,
// _sum and _count samples are its own.
func (e *Exposition) family(sample string) string {
	for _, suffix := range [...]string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(sample, suffix); ok && e.Types[base] == "histogram" {
			return base
		}
	}
	return sample
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

// parseComment reads a HELP or TYPE line into e and returns the family
// it declares ("" for any other comment). sampled says whether that
// family's samples were read already.
func (e *Exposition) parseComment(line string, sampled map[string]bool) (string, error) {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return "", nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return "", fmt.Errorf("malformed TYPE line %q", line)
		}
		typ := strings.TrimRight(fields[3], " \t\r")
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return "", fmt.Errorf("unknown metric type %q", typ)
		}
		if _, dup := e.Types[fields[2]]; dup {
			return "", fmt.Errorf("TYPE of %s repeated", fields[2])
		}
		if sampled[fields[2]] {
			return "", fmt.Errorf("TYPE of %s follows its samples", fields[2])
		}
		e.Types[fields[2]] = typ
	case "HELP":
		if len(fields) < 3 {
			return "", fmt.Errorf("malformed HELP line %q", line)
		}
		help := ""
		if len(fields) == 4 {
			help = helpUnescaper.Replace(fields[3])
		}
		e.Help[fields[2]] = help
	default:
		return "", nil
	}
	return fields[2], nil
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
