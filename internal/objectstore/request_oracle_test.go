package objectstore

import "github.com/faaspipe/faaspipe/internal/des"

func procFailMaybe(s *Service, p *des.Proc) error {
	if s.drawFailure() {
		p.Sleep(s.cfg.RequestLatency)
		s.metrics.Throttled++
		return ErrSlowDown
	}
	return nil
}
