package scenario

// Config returns the model's effective (defaults-applied) configuration.
func (m *Model) Config() Config { return m.cfg }
