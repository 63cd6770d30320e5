// Package jsonx holds the strict JSON decoding that every hand-written
// file and wire body goes through: exactly one value, no unknown
// fields, nothing after it.
package jsonx

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
)

// ErrTrailingData is DecodeStrict's error for data after the value.
var ErrTrailingData = errors.New("trailing data after the JSON value")

// DecodeStrict decodes data, which must hold exactly one JSON value,
// into v. Unknown object fields are an error, and anything after the
// value is ErrTrailingData (a second value is a concatenation bug or a
// smuggling attempt). It also returns the decoder's input offset where
// it stopped, which callers use to point at the offending line.
func DecodeStrict(data []byte, v any) (int64, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return dec.InputOffset(), err
	}
	if _, err := dec.Token(); err != io.EOF {
		return dec.InputOffset(), ErrTrailingData
	}
	return dec.InputOffset(), nil
}
