// Package wire mirrors the real internal/wire surface the analyzers
// key on (the import-path suffix is what they match): the Message
// interface and the sticky-error ConnWriter.
package wire

// Message is the decoded-message interface.
type Message interface {
	Kind() uint8
}

// ConnWriter latches its first error, like the real one.
type ConnWriter struct{ err error }

func (w *ConnWriter) Send(m Message) error { return w.err }

func (w *ConnWriter) Flush() error { return w.err }
