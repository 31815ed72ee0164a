package res

import "time"

type Collector struct{ rows []string }

func (c *Collector) Write(row string) error {
	c.rows = append(c.rows, row)
	return nil
}

// Close is a sink method itself, so its own body must be deterministic.
func (c *Collector) Close() error {
	c.rows = append(c.rows, time.Now().String()) // want `time\.Now`
	return nil
}
