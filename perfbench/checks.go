package main

import (
	"fmt"
	"math"
	"reflect"

	"paralleltape/internal/experiments"
	"paralleltape/internal/model"
	"paralleltape/internal/spans"
	"paralleltape/internal/tapesys"
)

// Output checks. Each returns "" when the checked output is right and a
// description of the first discrepancy otherwise; the caller counts the
// operation the output belongs to as failed.

// sameBits reports whether two values of the same type are identical bit
// for bit, floats compared by their IEEE-754 bits (so NaN equals only the
// same NaN and -0 differs from +0). It returns the path of the first
// differing field, or "" when none differs.
func sameBits(a, b any) string {
	return diffValue(reflect.ValueOf(a), reflect.ValueOf(b), "")
}

func diffValue(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diffValue(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
		return ""
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v != %v", path, a.Float(), b.Float())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d != %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d != %d", path, a.Uint(), b.Uint())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v != %v", path, a.Bool(), b.Bool())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q != %q", path, a.String(), b.String())
		}
	default:
		panic(fmt.Sprintf("sameBits: unsupported kind %s at %s", a.Kind(), path))
	}
	return ""
}

// checkFig6Row checks row i of a fig6 report against the sweep's inputs:
// no row error, the row identifies its (α, scheme) point, it pooled the
// drawn requests, and a healthy run delivered all of their bytes.
func checkFig6Row(in *fig6Inputs, i int, row experiments.Row) string {
	ai, si := i/3, i%3
	alpha := fig6Alphas[ai]
	want := threeSchemes(in.cfg, nil)[si].Name()
	switch {
	case row.Err != nil:
		return fmt.Sprintf("row %d: %v", i, row.Err)
	case row.Scheme != want || row.X != alpha || row.Label != fmt.Sprintf("alpha=%.1f", alpha):
		return fmt.Sprintf("row %d is (%s, %s, %v), want (alpha=%.1f, %s)", i, row.Label, row.Scheme, row.X, alpha, want)
	case row.Stats.Requests != in.cfg.Requests*in.cfg.Seeds:
		return fmt.Sprintf("row %d pooled %d requests, want %d", i, row.Stats.Requests, in.cfg.Requests*in.cfg.Seeds)
	case row.Stats.Bytes != in.bytes[ai]:
		return fmt.Sprintf("row %d requested %d bytes, the drawn requests hold %d", i, row.Stats.Bytes, in.bytes[ai])
	case row.Stats.BytesServed != row.Stats.Bytes || row.Stats.Availability != 1:
		return fmt.Sprintf("row %d: healthy run served %d of %d bytes", i, row.Stats.BytesServed, row.Stats.Bytes)
	case !(row.Stats.MeanBandwidth > 0) || math.IsInf(row.Stats.MeanBandwidth, 0):
		return fmt.Sprintf("row %d: bandwidth %v", i, row.Stats.MeanBandwidth)
	case row.TapesUsed <= 0:
		return fmt.Sprintf("row %d: %d tapes used", i, row.TapesUsed)
	}
	return ""
}

// checkSameRow checks that a row reproduces a reference row bit for bit.
func checkSameRow(i int, got, ref experiments.Row) string {
	if got.TapesUsed != ref.TapesUsed {
		return fmt.Sprintf("row %d: %d tapes used, reference %d", i, got.TapesUsed, ref.TapesUsed)
	}
	if d := sameBits(got.Stats, ref.Stats); d != "" {
		return fmt.Sprintf("row %d differs from the reference: Stats%s", i, d)
	}
	return ""
}

// checkHealthyRequest checks one request of a failure-free run: it
// delivered exactly the payload of the objects it names, nothing failed,
// and its response time is positive.
func checkHealthyRequest(w *model.Workload, r *model.Request, m tapesys.RequestMetrics) string {
	switch {
	case m.Request != r.ID:
		return fmt.Sprintf("request %d reported as %d", r.ID, m.Request)
	case m.Bytes != w.RequestBytes(r) || m.BytesServed != m.Bytes:
		return fmt.Sprintf("request %d: %d bytes served of %d reported, %d requested", r.ID, m.BytesServed, m.Bytes, w.RequestBytes(r))
	case m.FailedGroups != 0 || m.Retries != 0 || m.TimedOut:
		return fmt.Sprintf("request %d failed in a healthy run", r.ID)
	case !(m.Response > 0):
		return fmt.Sprintf("request %d: response %v", r.ID, m.Response)
	}
	return ""
}

// checkFaultyRequest checks one request of a run under faults: a partial
// request is still a served request, but its accounting must add up.
func checkFaultyRequest(w *model.Workload, r *model.Request, m tapesys.RequestMetrics) string {
	switch {
	case m.Request != r.ID:
		return fmt.Sprintf("request %d reported as %d", r.ID, m.Request)
	case m.Bytes != w.RequestBytes(r) || m.BytesServed+m.FailedBytes != m.Bytes:
		return fmt.Sprintf("request %d: %d served + %d failed of %d reported, %d requested", r.ID, m.BytesServed, m.FailedBytes, m.Bytes, w.RequestBytes(r))
	case !(m.Response > 0):
		return fmt.Sprintf("request %d: response %v", r.ID, m.Response)
	}
	return ""
}

// checkSpanWalls checks a reconstructed session against the metrics
// Submit returned for the same requests: one span tree per request, and
// each tree's wall time equal to the request's response time exactly.
// It returns one message per request ("" for a request that matches).
func checkSpanWalls(sess *spans.Session, ms []tapesys.RequestMetrics) []string {
	out := make([]string, len(ms))
	if len(sess.Requests) != len(ms) {
		for i := range out {
			out[i] = fmt.Sprintf("span session holds %d requests, %d were submitted", len(sess.Requests), len(ms))
		}
		return out
	}
	for i, r := range sess.Requests {
		if math.Float64bits(r.Wall()) != math.Float64bits(ms[i].Response) {
			out[i] = fmt.Sprintf("request %d: span wall %v != response %v", i, r.Wall(), ms[i].Response)
		}
	}
	return out
}
