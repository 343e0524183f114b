//! Wire payloads as the message-level cluster ships them.
//!
//! A node stages each frame's bytes in a reusable buffer. [`Frame`]
//! keeps a frame of at most [`INLINE_FRAME_BYTES`] bytes inside itself,
//! and so inside the transport record that carries it; only a longer
//! frame goes behind a shared [`Bytes`]. Frames in the chaotic runtime
//! average about one entry, so almost none of them touches the heap
//! between encode and delivery.

use crate::transport::{payload_entries, FaultTarget, WireSize};
use bytes::Bytes;
use std::borrow::Cow;

/// Longest frame kept inline: every raw frame of up to two entries
/// (36 bytes) and every compact frame of up to five.
pub const INLINE_FRAME_BYTES: usize = 40;

/// One encoded wire payload, read as its bytes through `Deref`.
#[derive(Clone)]
pub struct Frame(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` bytes of the array.
    Inline(u8, [u8; INLINE_FRAME_BYTES]),
    Shared(Bytes),
}

impl From<&[u8]> for Frame {
    #[inline]
    fn from(b: &[u8]) -> Self {
        if b.len() > INLINE_FRAME_BYTES {
            return Frame(Repr::Shared(Bytes::from(b)));
        }
        let mut bytes = [0; INLINE_FRAME_BYTES];
        bytes[..b.len()].copy_from_slice(b);
        Frame(Repr::Inline(b.len() as u8, bytes))
    }
}

impl Frame {
    /// The payload as a [`Bytes`]: borrowed when shared, copied into a
    /// new one when inline.
    #[inline]
    pub fn bytes(&self) -> Cow<'_, Bytes> {
        match &self.0 {
            Repr::Inline(..) => Cow::Owned(Bytes::from(&self[..])),
            Repr::Shared(b) => Cow::Borrowed(b),
        }
    }
}

impl std::ops::Deref for Frame {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline(len, bytes) => &bytes[..*len as usize],
            Repr::Shared(b) => b,
        }
    }
}

impl PartialEq for Frame {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Frame {}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Frame({:02x?})", &self[..])
    }
}

impl WireSize for Frame {
    #[inline]
    fn wire_bytes(&self) -> usize {
        self.len()
    }

    #[inline]
    fn entries(&self) -> u64 {
        payload_entries(self)
    }
}

impl FaultTarget for Frame {
    fn duplicate(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn leak_mass(&self) -> Option<Self> {
        let leaked = self.bytes().leak_mass()?;
        Some(Frame::from(&leaked[..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_frames_stay_inline_and_long_ones_share() {
        for len in [0, 1, 36, INLINE_FRAME_BYTES, INLINE_FRAME_BYTES + 1, 200] {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let f = Frame::from(&bytes[..]);
            assert_eq!(&f[..], &bytes[..]);
            assert_eq!(
                matches!(f.0, Repr::Inline(..)),
                len <= INLINE_FRAME_BYTES,
                "{len} bytes"
            );
            assert_eq!(f.bytes().as_slice(), &bytes[..]);
            assert_eq!(f.wire_bytes(), len);
        }
        assert_eq!(std::mem::size_of::<Frame>(), 48);
    }
}
