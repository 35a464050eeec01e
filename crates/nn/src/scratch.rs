//! Reusable scratch buffers for the inference hot path.
//!
//! A conv layer's eval forward reads each image twice over: once to
//! transform it (the activation quantize/cap/dequantize), and once in
//! `conv2d_into`, which copies it into a zero-padded image the GEMM
//! reads its patches from. A [`ScratchArena`] owns both buffers across
//! images (and across batches — a layer keeps its arena for its
//! lifetime), so steady-state eval forwards perform no per-image
//! allocation: each buffer is rewritten in full per image, and the GEMM
//! accumulates straight into the (zeroed) output tensor region.
//!
//! The training path does not use the padded image: it must cache an
//! owned patch matrix per image for the backward pass.

/// Per-layer scratch buffers, reused across the images of a batch.
#[derive(Debug, Clone, Default)]
pub struct ScratchArena {
    padded: Vec<f32>,
    image: Vec<f32>,
}

impl ScratchArena {
    /// An empty arena; buffers grow on first use and then stick.
    pub fn new() -> ScratchArena {
        ScratchArena::default()
    }

    /// Take ownership of the padded-image buffer (leaves an empty one
    /// behind). The take/put pair sidesteps borrow conflicts with the
    /// layer's other `&mut self` calls inside the forward loop.
    pub(crate) fn take_padded(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.padded)
    }

    /// Return the padded-image buffer so the next forward reuses its
    /// capacity.
    pub(crate) fn put_padded(&mut self, padded: Vec<f32>) {
        self.padded = padded;
    }

    /// Take ownership of the transformed-image buffer (leaves an empty
    /// one behind), as [`ScratchArena::take_padded`] does.
    pub(crate) fn take_image(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.image)
    }

    /// Return the transformed-image buffer for the next forward.
    pub(crate) fn put_image(&mut self, image: Vec<f32>) {
        self.image = image;
    }

    /// Current capacity of the padded-image buffer, in elements.
    pub fn padded_capacity(&self) -> usize {
        self.padded.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_round_trips_capacity() {
        let mut arena = ScratchArena::new();
        assert_eq!(arena.padded_capacity(), 0);
        let mut padded = arena.take_padded();
        padded.resize(1024, 0.0);
        let cap = padded.capacity();
        arena.put_padded(padded);
        assert!(arena.padded_capacity() >= 1024);
        // A second cycle reuses the same allocation: capacity is stable.
        let padded = arena.take_padded();
        assert_eq!(padded.capacity(), cap);
        arena.put_padded(padded);
    }

    #[test]
    fn take_leaves_an_empty_buffer() {
        let mut arena = ScratchArena::new();
        let mut padded = arena.take_padded();
        padded.push(1.0);
        arena.put_padded(padded);
        let first = arena.take_padded();
        assert_eq!(first, vec![1.0]);
        // While taken, the arena holds a fresh empty vec.
        assert_eq!(arena.padded_capacity(), 0);
        arena.put_padded(first);
    }
}
