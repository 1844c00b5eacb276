package packet

// Buffer builds frames by prepending layer headers, mirroring gopacket's
// SerializeBuffer: serialize the innermost layer first, then wrap each
// outer layer around what is already there. A Buffer may be reused across
// frames via Reset; the backing array is retained so steady-state
// serialization does not allocate.
type Buffer struct {
	buf    []byte // whole backing array
	start  int    // index of first live byte
	anchor int    // where appended payload begins; Reset returns here
}

// NewBuffer returns a Buffer with room for headroom bytes of prepended
// headers before it has to reallocate. 128 is plenty for every stack in
// this package.
func NewBuffer(headroom int) *Buffer {
	if headroom < 0 {
		headroom = 0
	}
	return &Buffer{buf: make([]byte, headroom), start: headroom, anchor: headroom}
}

// Reset discards the contents but keeps the backing array, so a reused
// Buffer serializes frames without allocating in steady state.
func (b *Buffer) Reset() {
	b.buf = b.buf[:b.anchor]
	b.start = b.anchor
}

// Bytes returns the serialized frame. The slice is valid until the next
// Prepend, Append or Reset.
func (b *Buffer) Bytes() []byte { return b.buf[b.start:] }

// Len returns the current frame length.
func (b *Buffer) Len() int { return len(b.buf) - b.start }

// Prepend makes room for n bytes in front of the current contents and
// returns that region for the caller to fill.
func (b *Buffer) Prepend(n int) []byte {
	if n <= b.start {
		b.start -= n
		return b.buf[b.start : b.start+n]
	}
	// Grow: allocate a new array with extra headroom in front.
	grow := n + 128
	nb := make([]byte, grow+len(b.buf))
	copy(nb[grow:], b.buf)
	b.start += grow
	b.anchor += grow
	b.buf = nb
	b.start -= n
	return b.buf[b.start : b.start+n]
}

// Append adds n bytes after the current contents and returns that region.
// It is used for payloads and trailing options.
func (b *Buffer) Append(n int) []byte {
	old := len(b.buf)
	if cap(b.buf) >= old+n {
		b.buf = b.buf[:old+n]
	} else {
		nb := make([]byte, old+n, (old+n)*2)
		copy(nb, b.buf)
		b.buf = nb
	}
	return b.buf[old : old+n]
}

// AppendBytes copies p after the current contents.
func (b *Buffer) AppendBytes(p []byte) {
	copy(b.Append(len(p)), p)
}
