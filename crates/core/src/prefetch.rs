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
//! Error protocol: the reader never panics the process on a source error.
//! Every stream ends with exactly one terminator — [`ChunkMsg::Done`] or
//! [`ChunkMsg::Failed`] — sent immediately after the (possibly partial)
//! chunk in which the stream ended, so the consumer can attribute a parse
//! error to the exact chunk and task offset where it occurred. A channel
//! disconnect *without* a terminator means the reader died abnormally and
//! is synthesised into a [`ChunkMsg::Failed`].
//!
//! Data flows one way: the reader allocates each chunk it parses, and the
//! stream that runs the chunk drops it. Nothing is sent back.

use std::sync::mpsc::{sync_channel, Receiver};
use std::thread::JoinHandle;

use agatha_align::Task;

/// Initial capacity clamp for chunk buffers: a pathological `chunk_size`
/// (e.g. "whole stream as one chunk") should grow organically, not reserve
/// gigabytes up front.
const RESERVE_CAP: usize = 8192;

/// One message from the reader thread to the stream consumer.
pub(crate) enum ChunkMsg {
    /// A parsed chunk of tasks. Full (`chunk_size` tasks) except possibly
    /// the final chunk before a terminator.
    Chunk(Vec<Task>),
    /// The source ended cleanly. Terminal.
    Done,
    /// The source yielded an error (e.g. malformed FASTA). Terminal: the
    /// reader stops at the first error, after shipping the tasks that
    /// parsed before it.
    Failed(String),
}

/// Handle to a running prefetch reader. Dropping it unblocks and joins the
/// reader thread.
pub(crate) struct PrefetchedChunks {
    rx: Option<Receiver<ChunkMsg>>,
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
        let (tx, rx) = sync_channel::<ChunkMsg>(depth);
        let reader = std::thread::Builder::new()
            .name("agatha-prefetch".into())
            .spawn(move || loop {
                let mut buf = Vec::with_capacity(chunk_size.min(RESERVE_CAP));
                let terminal = loop {
                    if buf.len() == chunk_size {
                        break None;
                    }
                    match source.next() {
                        Some(Ok(task)) => buf.push(task),
                        Some(Err(e)) => break Some(ChunkMsg::Failed(e)),
                        None => break Some(ChunkMsg::Done),
                    }
                };
                if !buf.is_empty() && tx.send(ChunkMsg::Chunk(buf)).is_err() {
                    return; // consumer gone; stop reading
                }
                if let Some(t) = terminal {
                    let _ = tx.send(t);
                    return;
                }
            })
            .expect("spawn prefetch reader thread");
        PrefetchedChunks { rx: Some(rx), reader: Some(reader) }
    }

    /// Block until the next message. After a terminator has been returned
    /// the caller must not call this again.
    pub(crate) fn next_msg(&mut self) -> ChunkMsg {
        match self.rx.as_ref().expect("prefetch receiver live until drop").recv() {
            Ok(msg) => msg,
            // The reader always sends Done/Failed before exiting normally;
            // a bare disconnect means it died mid-stream.
            Err(_) => ChunkMsg::Failed("prefetch reader thread terminated unexpectedly".into()),
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
        loop {
            match pf.next_msg() {
                ChunkMsg::Chunk(c) => sizes.push(c.len()),
                ChunkMsg::Done => return (sizes, None),
                ChunkMsg::Failed(e) => return (sizes, Some(e)),
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
        if let ChunkMsg::Chunk(c) = pf.next_msg() {
            assert_eq!(c.len(), 8);
        } else {
            panic!("expected a chunk");
        }
        drop(pf);
    }
}
