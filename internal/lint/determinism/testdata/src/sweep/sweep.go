// Package sweep is a fixture stand-in: the Sink interface marks the
// deterministic-output boundary, and every one of its methods is a sink.
package sweep

type Sink interface {
	Write(row string) error
	Close() error
}
