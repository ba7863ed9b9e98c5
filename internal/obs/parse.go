package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// Family is one parsed metric family, as returned by ParseExposition.
type Family struct {
	Name    string
	Type    string
	Samples int
	// Labels holds, for each non-histogram sample in order, the raw
	// inner label block of that sample ("" for an unlabeled sample,
	// `namespace="default"` for a labeled one) — enough for callers to
	// assert which label values a vector family exposed.
	Labels  []string
	Buckets []Bucket // histograms only, finite le bounds ascending
	Sum     int64
	Count   uint64
}

// Bucket is one cumulative histogram bucket.
type Bucket struct {
	LE    int64
	Count uint64
}

// ParseExposition is a strict parser of the subset of the Prometheus
// text format this package writes, shared by the package tests and
// the root package's TestCLITsserved: every line must be a HELP, TYPE or
// sample line; names must match the metric charset; TYPE must precede
// its samples; histogram le buckets must be cumulative (monotone
// non-decreasing counts over ascending bounds) and their +Inf bucket
// must agree with _count. Any violation returns an error naming the
// offending line.
func ParseExposition(data []byte) (map[string]*Family, error) {
	families := make(map[string]*Family)
	get := func(name string) *Family {
		f, ok := families[name]
		if !ok {
			f = &Family{Name: name}
			families[name] = f
		}
		return f
	}
	sawInf := make(map[string]uint64)
	for ln, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		lineNo := ln + 1
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found && rest == "" {
				return nil, fmt.Errorf("line %d: HELP without a name", lineNo)
			}
			if !found {
				name = rest
			}
			if !ValidMetricName(name) {
				return nil, fmt.Errorf("line %d: HELP for invalid name %q", lineNo, name)
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, found := strings.Cut(rest, " ")
			if !found {
				return nil, fmt.Errorf("line %d: TYPE without a type", lineNo)
			}
			if !ValidMetricName(name) {
				return nil, fmt.Errorf("line %d: TYPE for invalid name %q", lineNo, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown TYPE %q", lineNo, typ)
			}
			f := get(name)
			if f.Samples > 0 {
				return nil, fmt.Errorf("line %d: TYPE %s after its samples", lineNo, name)
			}
			f.Type = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			return nil, fmt.Errorf("line %d: unknown comment %q", lineNo, line)
		}
		// Sample: name[{labels}] value
		nameAndLabels, value, found := strings.Cut(line, " ")
		if !found {
			return nil, fmt.Errorf("line %d: sample without a value: %q", lineNo, line)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return nil, fmt.Errorf("line %d: bad sample value %q: %v", lineNo, value, err)
		}
		name, labels, hasLabels := strings.Cut(nameAndLabels, "{")
		if hasLabels && !strings.HasSuffix(labels, "}") {
			return nil, fmt.Errorf("line %d: unterminated label block in %q", lineNo, nameAndLabels)
		}
		if !ValidMetricName(name) {
			return nil, fmt.Errorf("line %d: invalid sample name %q", lineNo, name)
		}
		// Resolve histogram series back to their family.
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok {
				if f, exists := families[base]; exists && f.Type == "histogram" {
					family = base
				}
				break
			}
		}
		f := get(family)
		if f.Type == "" {
			return nil, fmt.Errorf("line %d: sample %s before its TYPE line", lineNo, name)
		}
		f.Samples++
		if f.Type != "histogram" {
			f.Labels = append(f.Labels, strings.TrimSuffix(labels, "}"))
			continue
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			le, ok := strings.CutPrefix(strings.TrimSuffix(labels, "}"), `le="`)
			if !ok || !strings.HasSuffix(le, `"`) {
				return nil, fmt.Errorf("line %d: histogram bucket without le label: %q", lineNo, line)
			}
			le = strings.TrimSuffix(le, `"`)
			cnt, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bucket count %q: %v", lineNo, value, err)
			}
			if le == "+Inf" {
				sawInf[family] = cnt
				if n := len(f.Buckets); n > 0 && f.Buckets[n-1].Count > cnt {
					return nil, fmt.Errorf("line %d: +Inf bucket %d below le=%d bucket %d",
						lineNo, cnt, f.Buckets[n-1].LE, f.Buckets[n-1].Count)
				}
				continue
			}
			bound, err := strconv.ParseInt(le, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bucket bound %q: %v", lineNo, le, err)
			}
			if n := len(f.Buckets); n > 0 {
				if f.Buckets[n-1].LE >= bound {
					return nil, fmt.Errorf("line %d: bucket bounds not ascending (%d after %d)", lineNo, bound, f.Buckets[n-1].LE)
				}
				if f.Buckets[n-1].Count > cnt {
					return nil, fmt.Errorf("line %d: bucket counts not cumulative (%d after %d)", lineNo, cnt, f.Buckets[n-1].Count)
				}
			}
			f.Buckets = append(f.Buckets, Bucket{LE: bound, Count: cnt})
		case strings.HasSuffix(name, "_sum"):
			sum, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: histogram sum %q: %v", lineNo, value, err)
			}
			f.Sum = sum
		case strings.HasSuffix(name, "_count"):
			cnt, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: histogram count %q: %v", lineNo, value, err)
			}
			f.Count = cnt
		default:
			return nil, fmt.Errorf("line %d: unexpected histogram sample %q", lineNo, name)
		}
	}
	for name, f := range families {
		if f.Type != "histogram" {
			continue
		}
		inf, ok := sawInf[name]
		if !ok {
			return nil, fmt.Errorf("histogram %s has no +Inf bucket", name)
		}
		if inf != f.Count {
			return nil, fmt.Errorf("histogram %s: +Inf bucket %d != count %d", name, inf, f.Count)
		}
	}
	return families, nil
}
