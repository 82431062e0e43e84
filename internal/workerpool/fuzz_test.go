package workerpool

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzReadFrame reads arbitrary bytes frame by frame under a small size
// limit, as the pool reads a worker's stdout. It must never panic, every
// payload must be exactly its header's length, and the only errors are
// io.EOF at a frame boundary, io.ErrUnexpectedEOF inside a frame and
// errFrameTooBig. Writing the frames read back with writeFrame must
// reproduce the bytes they were read from.
func FuzzReadFrame(f *testing.F) {
	const limit = 64
	frames := func(payloads ...[]byte) []byte {
		var b bytes.Buffer
		for i, p := range payloads {
			if err := writeFrame(&b, byte(i+1), p); err != nil {
				f.Fatal(err)
			}
		}
		return b.Bytes()
	}
	// The streams of the frame tests above.
	f.Add(frames(nil, []byte{}, []byte("x"), bytes.Repeat([]byte("abc"), 20)))
	f.Add(frames(bytes.Repeat([]byte("a"), 512), []byte("small")))
	full := frames([]byte("full payload"))
	for _, cut := range []int{1, 4, 5, 9, len(full) - 1} {
		f.Add(full[:cut])
	}
	f.Add(frames(bytes.Repeat([]byte("a"), 100)))
	f.Add([]byte("this is not a frame at all"))
	f.Add(frames(helloPayload, nil, []byte("pong")))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var rewritten bytes.Buffer
		var buf []byte
		for {
			start := len(data) - r.Len()
			typ, payload, nbuf, err := readFrame(r, buf, limit)
			buf = nbuf
			if err != nil {
				switch {
				case err == io.EOF:
					if start != len(data) {
						t.Fatalf("io.EOF at offset %d of %d, not at a frame boundary", start, len(data))
					}
				case err == io.ErrUnexpectedEOF:
					if start == len(data) || r.Len() != 0 {
						t.Fatalf("io.ErrUnexpectedEOF at offset %d of %d with %d bytes unread", start, len(data), r.Len())
					}
				case errors.Is(err, errFrameTooBig):
					if n := binary.BigEndian.Uint32(data[start+1 : start+frameHeaderLen]); n <= limit {
						t.Fatalf("errFrameTooBig for a %d-byte payload under limit %d", n, limit)
					}
				default:
					t.Fatalf("unexpected error at offset %d: %v", start, err)
				}
				if !bytes.Equal(rewritten.Bytes(), data[:start]) {
					t.Fatalf("re-written frames %x differ from the bytes read %x", rewritten.Bytes(), data[:start])
				}
				return
			}
			if n := binary.BigEndian.Uint32(data[start+1 : start+frameHeaderLen]); uint32(len(payload)) != n {
				t.Fatalf("payload of %d bytes, header says %d", len(payload), n)
			}
			if err := writeFrame(&rewritten, typ, payload); err != nil {
				t.Fatal(err)
			}
		}
	})
}
