package api

// Shared request decoding and validation. Every /v1 handler with a body
// funnels through decode, so malformed JSON and invalid fields produce
// the same 400 envelope: code "bad_request" with per-field
// {field, reason} entries — never an ad-hoc string.

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
)

// validator is the request-side contract: structural checks that gate a
// handler before any engine work, reported per field.
type validator interface {
	validate() []FieldError
}

// decode unmarshals r's body into dst and runs its validation. On
// failure it writes the uniform 400 envelope and returns false. An
// empty body decodes as the zero value, so validate decides which
// fields are required.
func decode(w http.ResponseWriter, r *http.Request, dst validator) bool {
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "request body is not valid JSON",
			FieldError{Field: "body", Reason: err.Error()})
		return false
	}
	if fields := dst.validate(); len(fields) > 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid request", fields...)
		return false
	}
	return true
}

// queryInt parses an optional non-negative integer query parameter,
// collecting a FieldError on failure.
func queryInt(q url.Values, name string, def int, fields *[]FieldError) int {
	raw := q.Get(name)
	if raw == "" {
		return def
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		*fields = append(*fields, FieldError{Field: name, Reason: "must be a non-negative integer"})
		return def
	}
	return v
}

// DestLists is the dests field of a route or plan request: one
// destination list per source, null or [] for an idle source. It
// decodes to exactly what encoding/json makes of a [][]int, but carves
// every row from one backing array instead of allocating each row.
type DestLists [][]int

// UnmarshalJSON implements json.Unmarshaler. encoding/json hands it one
// well-formed JSON value. A first scan counts the rows and integers, a
// second fills them. A repeated dests key (encoding/json matches keys
// case-insensitively) decodes into the lists already there, with
// encoding/json's merge rules, so it takes the reflective path.
func (d *DestLists) UnmarshalJSON(data []byte) error {
	if *d != nil {
		return json.Unmarshal(data, (*[][]int)(d))
	}
	rows, ints, err := scanDestLists(data, nil, nil)
	if err != nil || rows < 0 {
		return err
	}
	out, backing := make([][]int, rows), make([]int, ints)
	if _, _, err := scanDestLists(data, out, backing); err != nil {
		return err
	}
	*d = out
	return nil
}

// errDestLists is every rejection of scanDestLists: where encoding/json
// would fail to decode the value into a [][]int, so would it.
var errDestLists = errors.New("dests: want an array of integer arrays")

// scanDestLists parses a JSON null or array of rows, each null or an
// array whose elements are integers or null (a null element decodes to
// 0, as encoding/json leaves it). It returns the row and integer
// counts, rows -1 for a null value. With non-nil out and backing, sized
// by a first call, it also fills out with rows carved from backing.
func scanDestLists(data []byte, out [][]int, backing []int) (rows, ints int, err error) {
	p := skipSpace(data, 0)
	if hasNull(data, p) {
		if skipSpace(data, p+4) != len(data) {
			return 0, 0, errDestLists
		}
		return -1, 0, nil
	}
	p, done, err := openList(data, p)
	for ; err == nil && !done; p, done, err = nextElem(data, p) {
		if hasNull(data, p) {
			p += 4
		} else {
			start := ints
			if p, ints, err = scanRow(data, p, backing, ints); err != nil {
				return 0, 0, err
			}
			if out != nil {
				out[rows] = backing[start:ints:ints]
			}
		}
		rows++
	}
	if err != nil || skipSpace(data, p) != len(data) {
		return 0, 0, errDestLists
	}
	return rows, ints, nil
}

// scanRow parses the row at data[p:], an array of integers or nulls,
// counting its integers on from ints and, when backing is non-nil,
// storing them at backing[ints:].
func scanRow(data []byte, p int, backing []int, ints int) (int, int, error) {
	p, done, err := openList(data, p)
	for ; err == nil && !done; p, done, err = nextElem(data, p) {
		v := 0
		if hasNull(data, p) {
			p += 4
		} else if v, p, err = scanInt(data, p); err != nil {
			return 0, 0, err
		}
		if backing != nil {
			backing[ints] = v
		}
		ints++
	}
	return p, ints, err
}

// openList consumes the '[' opening a list at data[p] and the space
// after it. done reports an empty list, whose ']' it consumes too.
func openList(data []byte, p int) (next int, done bool, err error) {
	if p >= len(data) || data[p] != '[' {
		return p, false, errDestLists
	}
	p = skipSpace(data, p+1)
	if p < len(data) && data[p] == ']' {
		return p + 1, true, nil
	}
	return p, false, nil
}

// nextElem consumes what follows a list element: a ',' and the space
// around it, or the closing ']', which sets done.
func nextElem(data []byte, p int) (next int, done bool, err error) {
	p = skipSpace(data, p)
	if p < len(data) {
		switch data[p] {
		case ',':
			return skipSpace(data, p+1), false, nil
		case ']':
			return p + 1, true, nil
		}
	}
	return p, false, errDestLists
}

// scanInt parses the JSON number at data[p:] as an int, failing as
// encoding/json does on a fraction, an exponent or overflow.
func scanInt(data []byte, p int) (int, int, error) {
	neg := p < len(data) && data[p] == '-'
	if neg {
		p++
	}
	start := p
	var u uint64
	for ; p < len(data) && '0' <= data[p] && data[p] <= '9'; p++ {
		if u > math.MaxUint64/10-1 {
			return 0, 0, errDestLists
		}
		u = u*10 + uint64(data[p]-'0')
	}
	if p == start || p < len(data) && (data[p] == '.' || data[p] == 'e' || data[p] == 'E') {
		return 0, 0, errDestLists
	}
	if neg {
		if u > math.MaxInt+1 {
			return 0, 0, errDestLists
		}
		return int(-u), p, nil
	}
	if u > math.MaxInt {
		return 0, 0, errDestLists
	}
	return int(u), p, nil
}

// skipSpace returns the index of the first non-whitespace byte of
// data at or after p.
func skipSpace(data []byte, p int) int {
	for p < len(data) && (data[p] == ' ' || data[p] == '\t' || data[p] == '\n' || data[p] == '\r') {
		p++
	}
	return p
}

// hasNull reports whether the literal null starts at data[p].
func hasNull(data []byte, p int) bool {
	return len(data)-p >= 4 && string(data[p:p+4]) == "null"
}
