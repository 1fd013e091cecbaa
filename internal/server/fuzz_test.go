package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

// checkDecodeErr fails unless err is a transport error (the stream ended)
// or a protocol violation tagged ErrMalformed.
func checkDecodeErr(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrMalformed) {
		t.Fatalf("decode error %v is neither an io error nor ErrMalformed", err)
	}
}

// FuzzReadRequest feeds the request decoder arbitrary bytes: it must
// never panic, never grow its frame buffer past MaxFrameLen, and fail
// only with an io error or ErrMalformed; every frame it accepts must be
// the canonical encoding AppendRequest produces. The second half checks
// the other direction: a request AppendRequest encodes within the limits
// decodes back exactly.
func FuzzReadRequest(f *testing.F) {
	var pipeline []byte
	for _, req := range []Request{
		{Op: OpGet, Key: []byte("k")},
		{Op: OpPut, Key: []byte("key-1"), Val: 42},
		{Op: OpDelete, Key: []byte("key-1")},
		{Op: OpContains, Key: []byte("key-1")},
		{Op: OpPing},
		{Op: OpStats},
	} {
		frame := AppendRequest(nil, &req)
		pipeline = append(pipeline, frame...)
		f.Add(frame, req.Op, req.Key, req.Val)
	}
	f.Add(pipeline, OpPut, []byte{}, uint64(0))
	f.Add([]byte{1, 0, 0, 0, 99}, byte(99), []byte("x"), uint64(1)) // unknown opcode
	f.Add([]byte{0, 0, 0x20, 0}, OpGet, []byte(nil), uint64(0))     // length over MaxFrameLen

	f.Fuzz(func(t *testing.T, data []byte, op byte, key []byte, val uint64) {
		br := bufio.NewReader(bytes.NewReader(data))
		var req Request
		for off := 0; ; {
			err := ReadRequest(br, &req)
			if cap(req.buf) > MaxFrameLen {
				t.Fatalf("frame buffer grew to %d bytes, past MaxFrameLen", cap(req.buf))
			}
			if err != nil {
				checkDecodeErr(t, err)
				break
			}
			n := 4 + len(req.buf)
			if got := AppendRequest(nil, &req); !bytes.Equal(got, data[off:off+n]) {
				t.Fatalf("accepted frame % x re-encodes as % x", data[off:off+n], got)
			}
			off += n
		}

		if len(key) > MaxKeyLen || (!hasKey(op) && op != OpPing && op != OpStats) {
			return
		}
		in := Request{Op: op, Key: key, Val: val}
		if err := ReadRequest(bufio.NewReader(bytes.NewReader(AppendRequest(nil, &in))), &req); err != nil {
			t.Fatalf("encoded %+v fails to decode: %v", in, err)
		}
		if !hasKey(op) {
			in.Key, in.Val = nil, 0
		} else if op != OpPut {
			in.Val = 0
		}
		if req.Op != in.Op || !bytes.Equal(req.Key, in.Key) || req.Val != in.Val {
			t.Fatalf("round trip: sent %+v, decoded op=%d key=%q val=%d", in, req.Op, req.Key, req.Val)
		}
	})
}

// FuzzReadResponse feeds the response decoder arbitrary bytes for an
// arbitrary request opcode: it must never panic, never grow its frame
// buffer past MaxFrameLen, and fail only with an io error or
// ErrMalformed.
func FuzzReadResponse(f *testing.F) {
	for _, c := range []struct {
		op   byte
		resp Response
	}{
		{OpGet, Response{Status: StatusOK, Val: 7}},
		{OpGet, Response{Status: StatusNotFound}},
		{OpPut, Response{Status: StatusOK, Flag: true}},
		{OpDelete, Response{Status: StatusOK}},
		{OpContains, Response{Status: StatusOK, Flag: true}},
		{OpPing, Response{Status: StatusOK}},
		{OpStats, Response{Status: StatusOK, Body: []byte(`{"v":2}`)}},
		{OpPut, Response{Status: StatusErr, Body: []byte("server: unknown opcode 99")}},
		{OpPut, Response{Status: StatusBusy, RetryAfterMs: 5}},
		{OpGet, Response{Status: StatusDraining}},
	} {
		f.Add(c.op, AppendResponse(nil, c.op, &c.resp))
	}
	f.Add(OpGet, []byte{9, 0, 0, 0, StatusOK, 1}) // truncated payload

	f.Fuzz(func(t *testing.T, op byte, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var resp Response
		for {
			err := ReadResponse(br, op, &resp)
			if cap(resp.buf) > MaxFrameLen {
				t.Fatalf("frame buffer grew to %d bytes, past MaxFrameLen", cap(resp.buf))
			}
			if err != nil {
				checkDecodeErr(t, err)
				return
			}
		}
	})
}
