package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

func TestReaderRoundTrip(t *testing.T) {
	var buf []byte
	buf = append(buf, "tag1"...)
	buf = binary.AppendUvarint(buf, 300)
	buf = binary.AppendVarint(buf, math.MinInt64)
	buf = binary.AppendVarint(buf, -1)
	buf = binary.LittleEndian.AppendUint64(buf, 0xfff8000000000001)
	buf = AppendString(buf, "héllo")
	buf = AppendString(buf, "")
	buf = append(buf, 7, 0xaa)

	r := NewReader(buf)
	r.Expect("tag1")
	if v := r.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != math.MinInt64 {
		t.Errorf("Varint = %d", v)
	}
	if v := r.Int(); v != -1 {
		t.Errorf("Int = %d", v)
	}
	if v := r.Uint64(); v != 0xfff8000000000001 {
		t.Errorf("Uint64 = %#x", v)
	}
	if s := r.String(); s != "héllo" {
		t.Errorf("String = %q", s)
	}
	if s := r.String(); s != "" {
		t.Errorf("empty String = %q", s)
	}
	if b := r.Byte(); b != 7 {
		t.Errorf("Byte = %d", b)
	}
	if r.Err() != nil || r.Len() != 1 || r.Rest()[0] != 0xaa {
		t.Errorf("err %v, %d bytes left", r.Err(), r.Len())
	}
}

func TestReaderRejects(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		read func(r *Reader)
		want error
	}{
		{"empty byte", nil, func(r *Reader) { r.Byte() }, ErrTruncated},
		{"cut varint", []byte{0x80}, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"padded varint", []byte{0x81, 0x00}, func(r *Reader) { r.Uvarint() }, ErrVarint},
		{"padded zero", []byte{0x80, 0x00}, func(r *Reader) { r.Varint() }, ErrVarint},
		{"65-bit varint", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, func(r *Reader) { r.Uvarint() }, ErrVarint},
		{"short uint64", make([]byte, 7), func(r *Reader) { r.Uint64() }, ErrTruncated},
		{"take past the end", []byte{1, 2}, func(r *Reader) { r.Take(3) }, ErrTruncated},
		{"negative take", []byte{1, 2}, func(r *Reader) { r.Take(-1) }, ErrTruncated},
		{"uint32 overflow", binary.AppendUvarint(nil, 1<<32), func(r *Reader) { r.Uint32() }, ErrRange},
		{"string past the end", []byte{5, 'a', 'b'}, func(r *Reader) { _ = r.String() }, ErrTruncated},
		{"count past the end", []byte{3, 0, 0, 0, 0, 0}, func(r *Reader) { r.Count(2) }, ErrTruncated},
		{"absurd count", binary.AppendUvarint(nil, math.MaxUint64), func(r *Reader) { r.Count(1) }, ErrTruncated},
		{"wrong tag", []byte("tag2"), func(r *Reader) { r.Expect("tag1") }, ErrTag},
		{"short tag", []byte("ta"), func(r *Reader) { r.Expect("tag1") }, ErrTag},
	}
	for _, tc := range cases {
		r := NewReader(tc.data)
		tc.read(&r)
		if !errors.Is(r.Err(), tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, r.Err(), tc.want)
		}
		// The failure sticks and later reads are harmless zeros.
		if r.Byte() != 0 || r.Uvarint() != 0 || r.String() != "" || r.Count(1) != 0 || r.Len() != 0 || !errors.Is(r.Err(), tc.want) {
			t.Errorf("%s: reader kept going after the failure", tc.name)
		}
	}
	if r := NewReader([]byte{7, 8, 9}); string(r.Take(2)) != "\x07\x08" || r.Len() != 1 || r.Err() != nil {
		t.Error("Take did not hand out the next two bytes")
	}
	if r := NewReader([]byte{2, 0, 0, 0, 0}); r.Count(2) != 2 || r.Err() != nil {
		t.Error("a count the input can hold was rejected")
	}
}
