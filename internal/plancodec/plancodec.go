// Package plancodec serializes computed switch settings into a compact
// binary wire format, so external tooling (hardware test benches, FPGA
// configuration flows, remote clients of cmd/brsmnd) can consume the
// routing decisions rather than only the simulated deliveries.
//
// Format (all integers little-endian):
//
//	magic   [4]byte "BRSP"
//	version uint8 (1)
//	n       uint32
//	columns uint32
//	then per column:
//	  kind      uint8   (fabric.ColumnKind)
//	  level     uint8
//	  blockLog  uint8   (log2 of the pair-wiring block size)
//	  advance   uint8   (1 if a tag hand-off follows the column)
//	  settings  ceil(n/2 * 2 / 8) bytes, 2 bits per switch, LSB first
//
// Two bits encode a swbox.Setting exactly (the paper's r_i values 0–3).
package plancodec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"brsmn/internal/fabric"
	"brsmn/internal/shuffle"
	"brsmn/internal/swbox"
)

const (
	// Magic is the 4-byte header every serialized plan starts with.
	Magic = "BRSP"
	// FormatVersion is the version this package encodes. Decode accepts
	// exactly this version; anything newer fails with ErrUnknownVersion
	// so old daemons reject plans from future builds instead of
	// misparsing them.
	FormatVersion = 1
)

// ErrUnknownVersion reports a well-formed header whose version this
// build does not speak. Callers distinguishing "corrupt" from "newer
// format" (e.g. snapshot loaders deciding whether to replan or abort)
// match it with errors.Is.
var ErrUnknownVersion = errors.New("plancodec: unknown format version")

// SniffVersion reads the header without decoding the body: it returns
// the format version of a serialized plan, or an error when the blob
// is too short or does not carry the plan magic. A successful sniff
// does not promise Decode will succeed — only that the header is ours.
func SniffVersion(data []byte) (int, error) {
	if len(data) < 5 || string(data[:4]) != Magic {
		return 0, fmt.Errorf("plancodec: bad magic")
	}
	return int(data[4]), nil
}

// Encode serializes a flattened column program for an n-port network.
func Encode(n int, cols []fabric.Column) ([]byte, error) {
	if !shuffle.IsPow2(n) || n < 2 {
		return nil, fmt.Errorf("plancodec: size %d is not a power of two >= 2", n)
	}
	if len(cols) > 255*255 { // far beyond any real depth; keeps sizes sane
		return nil, fmt.Errorf("plancodec: %d columns is implausible", len(cols))
	}
	settingsBytes := (n/2*2 + 7) / 8
	out := make([]byte, 0, 13+len(cols)*(4+settingsBytes))
	out = append(out, Magic...)
	out = append(out, FormatVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(cols)))
	for ci, c := range cols {
		if len(c.Settings) != n/2 {
			return nil, fmt.Errorf("plancodec: column %d has %d settings, want %d", ci, len(c.Settings), n/2)
		}
		if !shuffle.IsPow2(c.BlockSize) || c.BlockSize < 2 || c.BlockSize > n {
			return nil, fmt.Errorf("plancodec: column %d block size %d invalid", ci, c.BlockSize)
		}
		if c.Level < 0 || c.Level > 255 {
			return nil, fmt.Errorf("plancodec: column %d level %d out of byte range", ci, c.Level)
		}
		out = append(out, uint8(c.Kind), uint8(c.Level), uint8(shuffle.Log2(c.BlockSize)), boolByte(c.AdvanceAfter))
		// The column's settings pack straight into the output, four to a
		// byte. A setting is valid when it fits its two bits, so one OR
		// over the column checks them all.
		start := len(out)
		out = append(out, make([]byte, settingsBytes)...)
		packed := out[start:]
		var all swbox.Setting
		st := c.Settings
		w := 0
		for ; w+4 <= len(st); w += 4 {
			s := st[w : w+4 : w+4]
			all |= s[0] | s[1] | s[2] | s[3]
			packed[w/4] = uint8(s[0]) | uint8(s[1])<<2 | uint8(s[2])<<4 | uint8(s[3])<<6
		}
		for ; w < len(st); w++ { // n = 2 or 4: under four switches
			all |= st[w]
			packed[w/4] |= uint8(st[w]) << (uint(w%4) * 2)
		}
		if !all.Valid() {
			for w, s := range c.Settings {
				if !s.Valid() {
					return nil, fmt.Errorf("plancodec: column %d switch %d has invalid setting %d", ci, w, uint8(s))
				}
			}
		}
	}
	return out, nil
}

// Decode parses a serialized column program.
func Decode(data []byte) (int, []fabric.Column, error) {
	if len(data) < 13 || string(data[:4]) != Magic {
		return 0, nil, fmt.Errorf("plancodec: bad magic")
	}
	if data[4] != FormatVersion {
		return 0, nil, fmt.Errorf("%w %d (this build speaks %d)", ErrUnknownVersion, data[4], FormatVersion)
	}
	n := int(binary.LittleEndian.Uint32(data[5:9]))
	count := int(binary.LittleEndian.Uint32(data[9:13]))
	if !shuffle.IsPow2(n) || n < 2 {
		return 0, nil, fmt.Errorf("plancodec: size %d is not a power of two >= 2", n)
	}
	if count < 0 || count > 255*255 {
		return 0, nil, fmt.Errorf("plancodec: column count %d implausible", count)
	}
	settingsBytes := (n/2*2 + 7) / 8
	pos := 13
	cols := make([]fabric.Column, 0, count)
	for ci := 0; ci < count; ci++ {
		if pos+4+settingsBytes > len(data) {
			return 0, nil, fmt.Errorf("plancodec: truncated at column %d", ci)
		}
		c := fabric.Column{
			Kind:         fabric.ColumnKind(data[pos]),
			Level:        int(data[pos+1]),
			BlockSize:    1 << data[pos+2],
			AdvanceAfter: data[pos+3] == 1,
			Settings:     make([]swbox.Setting, n/2),
		}
		if c.BlockSize < 2 || c.BlockSize > n {
			return 0, nil, fmt.Errorf("plancodec: column %d block size %d invalid", ci, c.BlockSize)
		}
		pos += 4
		packed := data[pos : pos+settingsBytes]
		for w := range c.Settings {
			c.Settings[w] = swbox.Setting(packed[w/4] >> (uint(w%4) * 2) & 3)
		}
		pos += settingsBytes
		cols = append(cols, c)
	}
	if pos != len(data) {
		return 0, nil, fmt.Errorf("plancodec: %d trailing bytes", len(data)-pos)
	}
	return n, cols, nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
