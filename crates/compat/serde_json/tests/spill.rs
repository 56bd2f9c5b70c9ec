//! A spilling writer streams exactly the bytes `to_string` builds.

use a4_experiments::{RunOpts, ScenarioSpec};
use serde::Serialize;
use std::cell::{Cell, RefCell};
use std::io::{self, Write};
use std::rc::Rc;

/// A writer that keeps every byte and counts the writes it received.
#[derive(Default)]
struct Chunks {
    bytes: Vec<u8>,
    writes: usize,
}

impl Write for Chunks {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        self.writes += 1;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn spilled_chunks_concatenate_to_the_whole_string() {
    let scenario = ScenarioSpec::microbench(RunOpts::quick())
        .build()
        .expect("microbench builds");
    let state = scenario.harness.system().save_state();

    let compact = serde_json::to_string(&state).unwrap();
    let streamed = serde_json::to_writer(Chunks::default(), &state).unwrap();
    assert!(streamed.writes >= 3, "{} chunks", streamed.writes);
    assert!(compact.len() >= 3 * serde::SPILL_CHUNK);
    assert!(streamed.bytes == compact.as_bytes(), "compact bytes differ");

    // The pretty form, through a spilling writer directly.
    let pretty = serde_json::to_string_pretty(&state).unwrap();
    let chunks = Rc::new(RefCell::new(Chunks::default()));
    let sink = Rc::clone(&chunks);
    let mut w = serde::JsonWriter::spilling(
        true,
        Box::new(move |chunk: &str| sink.borrow_mut().write_all(chunk.as_bytes()).unwrap()),
    );
    state.serialize(&mut w);
    assert!(w.finish().is_empty(), "finish spills the rest");
    let streamed = chunks.borrow();
    assert!(streamed.writes >= 3, "{} chunks", streamed.writes);
    assert!(streamed.bytes == pretty.as_bytes(), "pretty bytes differ");
}

/// A writer that fails on its second write, counting every write into
/// a shared cell.
struct FailSecond(Rc<Cell<usize>>);

impl Write for FailSecond {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.set(self.0.get() + 1);
        if self.0.get() == 2 {
            return Err(io::Error::other("disk full"));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn the_first_write_error_is_returned_and_nothing_follows_it() {
    let scenario = ScenarioSpec::microbench(RunOpts::quick())
        .build()
        .expect("microbench builds");
    let state = scenario.harness.system().save_state();
    let writes = Rc::new(Cell::new(0));
    let err = serde_json::to_writer(FailSecond(Rc::clone(&writes)), &state)
        .err()
        .expect("the error surfaces");
    assert_eq!(err.to_string(), "disk full");
    assert_eq!(writes.get(), 2, "no write after the failed one");
}
