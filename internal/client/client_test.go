package client_test

import (
	"strings"
	"testing"
	"time"

	"flit/internal/client"
	"flit/internal/server"
)

// TestConnRefusesOversizeKey: a key longer than the frame's 16-bit length
// prefix can carry must be refused on the client, naming the limit. The
// connection stays usable — the server never sees a mis-framed request,
// so it counts no framing error and the rest of a pipelined window is
// answered.
func TestConnRefusesOversizeKey(t *testing.T) {
	srv, dial := pipeDialer(t, server.Options{})
	nc, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(nc)
	defer c.Close()
	c.SetOpTimeout(2 * time.Second)

	long := make([]byte, server.MaxKeyLen+1)
	if _, err := c.Put(long, 1); err == nil || !strings.Contains(err.Error(), "MaxKeyLen") {
		t.Fatalf("Put with a %d-byte key = %v, want an error naming MaxKeyLen", len(long), err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after the refused Put: %v", err)
	}

	// Pipelined: the refused request takes no response slot.
	c.Send(&server.Request{Op: server.OpPut, Key: []byte("a"), Val: 1})
	c.Send(&server.Request{Op: server.OpPut, Key: long, Val: 2})
	c.Send(&server.Request{Op: server.OpContains, Key: []byte("a")})
	if err := c.Flush(); err == nil || !strings.Contains(err.Error(), "MaxKeyLen") {
		t.Fatalf("Flush after an oversize Send = %v, want an error naming MaxKeyLen", err)
	}
	if c.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", c.Pending())
	}
	for i := 0; i < 2; i++ {
		resp, err := c.Recv()
		if err != nil || !resp.Flag {
			t.Fatalf("response %d = %+v, %v; want flag set", i, resp, err)
		}
	}

	// A key exactly at the limit still fits.
	if _, err := c.Put(long[:server.MaxKeyLen], 3); err != nil {
		t.Fatalf("Put with a MaxKeyLen-byte key: %v", err)
	}
	if n := srv.Stats().ConnErrors["framing"]; n != 0 {
		t.Fatalf("server counted %d framing errors, want 0", n)
	}
}
