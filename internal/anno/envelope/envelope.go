// Package envelope implements the versioned annotation container format of
// the split-compilation toolchain.
//
// Annotation payloads cross the distribution boundary inside encoded modules
// and must stay deployable as their schemas evolve: yesterday's offline
// compiler and tomorrow's online JIT meet around these bytes. The container
// makes every annotation value self-describing:
//
//	magic    "SVAE" (4 bytes)
//	u8       container format version (ContainerVersion)
//	uvarint  section count
//	per section:
//	    uvarint  name length, then name bytes (UTF-8)
//	    uvarint  section schema version
//	    uvarint  payload length
//	u32le    IEEE CRC-32 of the concatenated payloads
//	payloads concatenated, in section-table order
//
// Version 0 of every annotation schema is, by definition, the historical
// bare payload with no container at all: a value that does not start with
// the magic is a grandfathered v0 stream. That rule keeps every byte stream
// already in the wild loadable forever.
//
// The container is deliberately dumb: it names sections and versions them,
// nothing more. What a section means — and which versions a reader
// understands — is the business of internal/anno, which negotiates
// per-section at load time and degrades to online-only compilation instead
// of erroring when it meets bytes from the future.
package envelope

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic identifies an enveloped annotation value ("Split-Vm Annotation
// Envelope"). Values not starting with it are grandfathered v0 streams.
const Magic = "SVAE"

// ContainerVersion is the container layout version this package writes and
// understands. A parsed envelope with a newer container version returns
// ErrTooNew: the section table itself cannot be trusted to have this layout.
const ContainerVersion = 1

// Hard limits applied before any allocation, so hostile or corrupt inputs
// can neither panic the parser nor make it over-allocate.
const (
	maxSections = 64
	maxNameLen  = 255
)

// ErrNotEnvelope reports that the value does not start with the envelope
// magic and is therefore a grandfathered v0 stream (or something else
// entirely); the caller decides which.
var ErrNotEnvelope = errors.New("envelope: no magic, legacy v0 stream")

// ErrTooNew reports a container format version newer than ContainerVersion.
// The returned Envelope carries the declared Container number but no
// sections: the table layout of a future container is unknown.
var ErrTooNew = errors.New("envelope: container version newer than supported")

// Section is one named, versioned byte payload inside an envelope.
type Section struct {
	Name    string
	Version uint32
	// Payload aliases the parsed input on the read side; callers that keep
	// it beyond the input's lifetime must copy.
	Payload []byte
}

// Envelope is a parsed (or to-be-encoded) annotation container.
type Envelope struct {
	Container uint8
	Sections  []Section
}

// Section returns the first section with the given name, or nil.
func (e *Envelope) Section(name string) *Section {
	for i := range e.Sections {
		if e.Sections[i].Name == name {
			return &e.Sections[i]
		}
	}
	return nil
}

// Is reports whether the value starts with the envelope magic.
func Is(data []byte) bool {
	return len(data) >= len(Magic) && string(data[:len(Magic)]) == Magic
}

// Encode serializes the envelope. A zero Container encodes as
// ContainerVersion. It panics when the envelope violates the limits Parse
// enforces (section count, name length): shipping a stream every reader
// would silently degrade to online-only compilation is a programming error
// that must surface at write time, not in the field.
func Encode(e *Envelope) []byte {
	if len(e.Sections) > maxSections {
		panic(fmt.Sprintf("envelope: %d sections exceeds the limit of %d every reader enforces", len(e.Sections), maxSections))
	}
	for _, s := range e.Sections {
		if len(s.Name) > maxNameLen {
			panic(fmt.Sprintf("envelope: section name of %d bytes exceeds the limit of %d every reader enforces", len(s.Name), maxNameLen))
		}
	}
	container := e.Container
	if container == 0 {
		container = ContainerVersion
	}
	size := len(Magic) + 2 + 4 // magic, container, section count, checksum
	for _, s := range e.Sections {
		size += 3*binary.MaxVarintLen32 + len(s.Name) + len(s.Payload)
	}
	buf := append(make([]byte, 0, size), Magic...)
	buf = append(buf, container)
	buf = binary.AppendUvarint(buf, uint64(len(e.Sections)))
	var crc uint32
	for _, s := range e.Sections {
		buf = binary.AppendUvarint(buf, uint64(len(s.Name)))
		buf = append(buf, s.Name...)
		buf = binary.AppendUvarint(buf, uint64(s.Version))
		buf = binary.AppendUvarint(buf, uint64(len(s.Payload)))
		crc = crc32.Update(crc, crc32.IEEETable, s.Payload)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	for _, s := range e.Sections {
		buf = append(buf, s.Payload...)
	}
	return buf
}

// Parse decodes an envelope, validating the section table, the payload
// lengths and the checksum. It returns ErrNotEnvelope for values without the
// magic and ErrTooNew (with the declared Container set) for future container
// layouts; any other error means the value is corrupt. Section payloads
// alias data.
func Parse(data []byte) (*Envelope, error) {
	if !Is(data) {
		return nil, ErrNotEnvelope
	}
	pos := len(Magic)
	if pos >= len(data) {
		return nil, errors.New("envelope: truncated before container version")
	}
	e := &Envelope{Container: data[pos]}
	pos++
	if e.Container > ContainerVersion {
		return e, fmt.Errorf("%w (container %d, supported %d)", ErrTooNew, e.Container, ContainerVersion)
	}
	uvarint := func(what string) (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("envelope: bad %s at offset %d", what, pos)
		}
		pos += n
		return v, nil
	}
	count, err := uvarint("section count")
	if err != nil {
		return nil, err
	}
	if count > maxSections {
		return nil, fmt.Errorf("envelope: implausible section count %d (max %d)", count, maxSections)
	}
	var total uint64
	e.Sections = make([]Section, 0, count)
	lengths := make([]int, 0, count)
	for i := uint64(0); i < count; i++ {
		nameLen, err := uvarint("name length")
		if err != nil {
			return nil, err
		}
		if nameLen > maxNameLen {
			return nil, fmt.Errorf("envelope: section name of %d bytes (max %d)", nameLen, maxNameLen)
		}
		if nameLen > uint64(len(data)-pos) {
			return nil, fmt.Errorf("envelope: truncated section name at offset %d", pos)
		}
		name := string(data[pos : pos+int(nameLen)])
		pos += int(nameLen)
		version, err := uvarint("section version")
		if err != nil {
			return nil, err
		}
		if version > 1<<31 {
			return nil, fmt.Errorf("envelope: implausible section version %d", version)
		}
		length, err := uvarint("payload length")
		if err != nil {
			return nil, err
		}
		if length > uint64(len(data)) {
			return nil, fmt.Errorf("envelope: section %q declares %d payload bytes, input has %d", name, length, len(data))
		}
		total += length
		if total > uint64(len(data)) {
			return nil, fmt.Errorf("envelope: section table declares %d payload bytes, input has %d", total, len(data))
		}
		e.Sections = append(e.Sections, Section{Name: name, Version: uint32(version)})
		lengths = append(lengths, int(length))
	}
	if pos+4 > len(data) {
		return nil, errors.New("envelope: truncated before checksum")
	}
	sum := binary.LittleEndian.Uint32(data[pos:])
	pos += 4
	if uint64(len(data)-pos) != total {
		return nil, fmt.Errorf("envelope: %d payload bytes follow the table, section lengths sum to %d", len(data)-pos, total)
	}
	if crc32.ChecksumIEEE(data[pos:]) != sum {
		return nil, errors.New("envelope: payload checksum mismatch")
	}
	for i := range e.Sections {
		n := lengths[i]
		e.Sections[i].Payload = data[pos : pos+n : pos+n]
		pos += n
	}
	return e, nil
}

// DeclaredVersion summarizes the version an annotation value declares: 0 for
// grandfathered v0 streams, the highest section version for a parseable
// envelope, and the container version for an envelope from the future. The
// boolean reports whether the value is enveloped at all.
func DeclaredVersion(data []byte) (uint32, bool) {
	e, err := Parse(data)
	switch {
	case errors.Is(err, ErrNotEnvelope):
		return 0, false
	case errors.Is(err, ErrTooNew):
		return uint32(e.Container), true
	case err != nil:
		return 0, true
	}
	var max uint32
	for _, s := range e.Sections {
		if s.Version > max {
			max = s.Version
		}
	}
	return max, true
}
