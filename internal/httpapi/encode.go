package httpapi

// The range/kNN reply encoder. It appends the body straight into a pooled
// buffer without reflection and writes it in one Write with Content-Length.
// The bytes are exactly what encoding/json writes for the same
// QueryResponse; FuzzEncodeItems holds it to that. A reply from a clean
// cache entry reuses the entry's stored items encoding, so a cached result
// is formatted once per epoch, not once per hit.

import (
	"encoding/json"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/obs"
	"spatialsim/internal/serve"
)

// maxPooledBody caps the buffers kept for reuse: one full-universe answer
// must not pin megabytes in the pool for good.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

// appendHead appends the fields before the items array.
func appendHead(b []byte, epoch uint64, count int) []byte {
	b = append(b, `{"epoch":`...)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(count), 10)
	return append(b, `,"items":`...)
}

// appendItems appends items as the JSON array of Item objects. A NaN or
// infinite coordinate fails with encoding/json's error for it.
func appendItems(b []byte, items []index.Item) ([]byte, error) {
	var err error
	b = append(b, '[')
	for i, it := range items {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, it.ID, 10)
		b = append(b, `,"min":`...)
		if b, err = appendVec(b, it.Box.Min); err != nil {
			return b, err
		}
		b = append(b, `,"max":`...)
		if b, err = appendVec(b, it.Box.Max); err != nil {
			return b, err
		}
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// appendVec appends v as an [x,y,z] array.
func appendVec(b []byte, v geom.Vec3) ([]byte, error) {
	for i, f := range [3]float64{v.X, v.Y, v.Z} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		if i == 0 {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		b = appendFloat(b, f)
	}
	return append(b, ']'), nil
}

// appendFloat formats a finite f as encoding/json does: the shortest
// round-trip form, in exponent notation below 1e-6 and from 1e21 up, with a
// one-digit negative exponent's leading zero removed (1e-07 -> 1e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendTail closes the reply: the non-empty Detail fields, spliced in from
// encoding/json (they follow items, as the embedded struct's fields do),
// then the closing brace and the newline json.Encoder ends with.
func appendTail(b []byte, d Detail) ([]byte, error) {
	if d.Plan != nil || d.FanOut != 0 || d.Hedges != 0 || d.Failovers != 0 || d.Degraded ||
		len(d.ShardErrors) > 0 || len(d.NodeErrors) > 0 || d.Trace != nil {
		dj, err := json.Marshal(d)
		if err != nil {
			return b, err
		}
		b = append(b, ',')
		b = append(b, dj[1:len(dj)-1]...)
	}
	return append(b, "}\n"...), nil
}

// encodeItems appends the items array, spliced from slot when it holds an
// encoding and stored into it when it is empty. reused reports a splice.
func encodeItems(b []byte, items []index.Item, slot *serve.Encoding) (out []byte, reused bool, err error) {
	if enc := slot.Load(); enc != nil {
		return append(b, enc...), true, nil
	}
	start := len(b)
	if b, err = appendItems(b, items); err != nil || slot == nil {
		return b, false, err
	}
	slot.Store(append([]byte(nil), b[start:]...))
	return b, false, nil
}

// writeItems answers a range/kNN reply of items, reading and filling
// rep.Encoding, which the caller clears when items is not the whole result.
func writeItems(w http.ResponseWriter, r *http.Request, q url.Values, rep Reply, items []index.Item) {
	bp := bodyPool.Get().(*[]byte)
	b := appendHead((*bp)[:0], rep.Epoch, len(items))
	es := obs.SpanFromContext(r.Context()).Child("encode")
	mark := len(b)
	b, reused, err := encodeItems(b, items, rep.Encoding)
	if es != nil {
		es.Set("bytes", len(b)-mark)
		es.Set("reused", reused)
		es.End()
	}
	if err == nil {
		b, err = appendTail(b, detail(r, q, rep))
	}
	if err != nil {
		Error(w, http.StatusInternalServerError, "internal", err.Error())
	} else {
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(b)))
		// A failed write means the client is gone; there is no one to tell.
		_, _ = w.Write(b)
	}
	if cap(b) <= maxPooledBody {
		*bp = b
		bodyPool.Put(bp)
	}
}
