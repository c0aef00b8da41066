//! Bounded chunk prefetch for the streaming path.
//!
//! A dedicated reader thread drives a fallible task source (typically the
//! incremental `FastaPairs` iterator) and fills a small rendezvous channel
//! of parsed chunks, so FASTA parsing and task admission overlap kernel
//! execution instead of serialising with it. The channel is a
//! `sync_channel(depth)`: when the consumer falls behind, the reader blocks
//! on `send`, bounding live memory to `depth` queued chunks plus the one
//! being filled and the one being executed.
//!
//! The reader cuts chunks with the stream's one rule,
//! [`crate::engine::fill_chunk`], and sends one message per chunk: its
//! tasks and how the source ended, if it did. The chunk in which the
//! source ended — possibly partial, possibly empty — is the last and
//! carries that end (clean, or the source's error), so the consumer can
//! attribute a parse error to the exact chunk and task offset where it
//! occurred. The reader never panics the process on a source error; a
//! channel disconnect before the last chunk means it died abnormally and
//! reads as a failed end.
//!
//! Data flows one way: the reader allocates each chunk it parses, and the
//! stream that runs the chunk drops it. Nothing is sent back.

use std::sync::mpsc::{sync_channel, Receiver};
use std::thread::JoinHandle;

use agatha_align::Task;

use crate::engine::{fill_chunk, SourceEnd};

/// Handle to a running prefetch reader. Dropping it unblocks and joins the
/// reader thread.
pub(crate) struct PrefetchedChunks {
    /// Each parsed chunk with [`fill_chunk`]'s verdict on the source.
    rx: Option<Receiver<(Vec<Task>, SourceEnd)>>,
    reader: Option<JoinHandle<()>>,
}

impl PrefetchedChunks {
    /// Spawn the reader thread over `source`, batching `chunk_size` tasks
    /// per chunk with at most `depth` parsed chunks queued ahead of the
    /// consumer.
    pub(crate) fn spawn<S>(mut source: S, chunk_size: usize, depth: usize) -> PrefetchedChunks
    where
        S: Iterator<Item = Result<Task, String>> + Send + 'static,
    {
        assert!(chunk_size >= 1, "prefetch chunk_size must be at least 1");
        assert!(depth >= 1, "prefetch depth must be at least 1");
        let (tx, rx) = sync_channel(depth);
        let reader = std::thread::Builder::new()
            .name("agatha-prefetch".into())
            .spawn(move || loop {
                let mut tasks = Vec::new();
                let end = fill_chunk(&mut source, chunk_size, &mut tasks);
                let last = end.is_some();
                // A send error means the consumer is gone: stop reading.
                if tx.send((tasks, end)).is_err() || last {
                    return;
                }
            })
            .expect("spawn prefetch reader thread");
        PrefetchedChunks { rx: Some(rx), reader: Some(reader) }
    }

    /// Block until the next parsed chunk and put it in `buf`, returning how
    /// the source ended if it did in this chunk — [`fill_chunk`]'s contract.
    /// After it has returned an end the caller must not call it again.
    pub(crate) fn next_chunk(&mut self, buf: &mut Vec<Task>) -> SourceEnd {
        match self.rx.as_ref().expect("prefetch receiver live until drop").recv() {
            Ok((tasks, end)) => {
                *buf = tasks;
                end
            }
            // The reader always sends the chunk that ends the source before
            // exiting normally; a bare disconnect means it died mid-stream.
            Err(_) => Some(Err("prefetch reader thread terminated unexpectedly".into())),
        }
    }
}

impl Drop for PrefetchedChunks {
    fn drop(&mut self) {
        // Drop the receiver first: a reader blocked on a backpressured send
        // wakes with a send error and exits, so the join cannot hang.
        drop(self.rx.take());
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: u32) -> Task {
        Task::from_strs(id, "ACGTACGT", "ACGTACGT")
    }

    fn drain(pf: &mut PrefetchedChunks) -> (Vec<usize>, Option<String>) {
        let mut sizes = Vec::new();
        let mut chunk = Vec::new();
        loop {
            let end = pf.next_chunk(&mut chunk);
            if !chunk.is_empty() {
                sizes.push(chunk.len());
            }
            if let Some(end) = end {
                return (sizes, end.err());
            }
        }
    }

    #[test]
    fn chunks_then_done() {
        let src = (0..10).map(|i| Ok(task(i)));
        let mut pf = PrefetchedChunks::spawn(src, 4, 2);
        assert_eq!(drain(&mut pf), (vec![4, 4, 2], None));
    }

    #[test]
    fn exact_multiple_has_no_partial_chunk() {
        let src = (0..8).map(|i| Ok(task(i)));
        let mut pf = PrefetchedChunks::spawn(src, 4, 1);
        assert_eq!(drain(&mut pf), (vec![4, 4], None));
    }

    #[test]
    fn error_terminates_after_partial_chunk() {
        let src = (0..6).map(|i| Ok(task(i))).chain(std::iter::once(Err("bad record".to_string())));
        let mut pf = PrefetchedChunks::spawn(src, 4, 2);
        let (sizes, err) = drain(&mut pf);
        assert_eq!(sizes, vec![4, 2], "tasks parsed before the error still ship");
        assert_eq!(err.as_deref(), Some("bad record"));
    }

    #[test]
    fn empty_source_is_a_clean_done() {
        let mut pf = PrefetchedChunks::spawn(std::iter::empty(), 4, 1);
        assert_eq!(drain(&mut pf), (vec![], None));
    }

    #[test]
    fn dropping_midstream_unblocks_the_reader() {
        // Many more chunks than the channel depth: the reader is guaranteed
        // to be parked in a backpressured send when we drop. Drop must join
        // without hanging.
        let src = (0..10_000).map(|i| Ok(task(i)));
        let mut pf = PrefetchedChunks::spawn(src, 8, 1);
        let mut chunk = Vec::new();
        assert!(pf.next_chunk(&mut chunk).is_none(), "expected a full chunk");
        assert_eq!(chunk.len(), 8);
        drop(pf);
    }
}
