package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// AppendFloat appends f as encoding/json encodes a float64: the shortest
// round-trip decimal, in 'f' format or, outside [1e-6, 1e21), in 'e'
// format with a one-digit negative exponent left unpadded. NaN and ±Inf
// are errors, as they are for encoding/json.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("wire: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	//lint:ignore floatcmp encoding/json's format rule tests exact zero
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 becomes e-7.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendString appends s as a JSON string exactly as encoding/json's
// Marshal writes it. Printable ASCII other than the HTML-special <, > and
// & is copied as is; any other string takes encoding/json's own escaping.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, err := json.Marshal(s)
			if err != nil {
				// Unreachable: every Go string marshals.
				panic("wire: marshal string: " + err.Error())
			}
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
