//! Fixture: the event loop lost its readiness-tick hook, never grew
//! the flush hook, and its dispatch closures panic — one loop serves
//! every connection pinned to it, so any of these takes them all down.

pub struct BadLoop;

impl BadLoop {
    fn epoll_wait_det(&self) {
        // nothing yields here
    }

    pub fn tick(&mut self, reqs: Vec<(usize, Request)>) {
        self.batcher.run_tick(
            &self.exec,
            reqs,
            |req| self.serve(req).unwrap(),
            |idx, resp| {
                let conn = &mut self.conns[idx];
                conn.push(resp).expect("conn gone");
            },
        );
    }

    pub fn tick_deferred(&mut self, reqs: Vec<(usize, Request)>) {
        self.batcher.run_tick_deferred(
            &self.exec,
            reqs,
            |req| (self.serve(req).unwrap(), None),
            |idx, resp, durable| self.conns[idx].hold(resp, durable),
        );
    }
}
