//! Reusable scratch buffers for the inference hot path.
//!
//! The conv layers lower every image of a batch through im2col, and the
//! original loop allocated a fresh patch matrix, a fresh output matrix,
//! and one copy per image. A [`ScratchArena`] owns those buffers across
//! images (and across batches — a layer keeps its arena for its
//! lifetime), so steady-state eval forwards perform no per-image
//! allocation: `im2col_into` overwrites every slot of the reused patch
//! buffer and `matmul_into` accumulates straight into the (zeroed)
//! output tensor region. Each image's activation transform is written
//! to an arena buffer too, just before its im2col reads it.
//!
//! The patch buffer is deliberately not used on the training path, which
//! must cache an owned patch matrix per image for the backward pass.

/// Per-layer scratch buffers, reused across the images of a batch.
#[derive(Debug, Clone, Default)]
pub struct ScratchArena {
    cols: Vec<f32>,
    image: Vec<f32>,
}

impl ScratchArena {
    /// An empty arena; buffers grow on first use and then stick.
    pub fn new() -> ScratchArena {
        ScratchArena::default()
    }

    /// Take ownership of the im2col patch buffer (leaves an empty one
    /// behind). The take/put pair sidesteps borrow conflicts with the
    /// layer's other `&mut self` calls inside the forward loop.
    pub fn take_cols(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.cols)
    }

    /// Return the patch buffer so the next forward reuses its capacity.
    pub fn put_cols(&mut self, cols: Vec<f32>) {
        self.cols = cols;
    }

    /// Take ownership of the transformed-image buffer (leaves an empty
    /// one behind), as [`ScratchArena::take_cols`] does for patches.
    pub(crate) fn take_image(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.image)
    }

    /// Return the transformed-image buffer for the next forward.
    pub(crate) fn put_image(&mut self, image: Vec<f32>) {
        self.image = image;
    }

    /// Current capacity of the patch buffer, in elements.
    pub fn cols_capacity(&self) -> usize {
        self.cols.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_round_trips_capacity() {
        let mut arena = ScratchArena::new();
        assert_eq!(arena.cols_capacity(), 0);
        let mut cols = arena.take_cols();
        cols.resize(1024, 0.0);
        let cap = cols.capacity();
        arena.put_cols(cols);
        assert!(arena.cols_capacity() >= 1024);
        // A second cycle reuses the same allocation: capacity is stable.
        let cols = arena.take_cols();
        assert_eq!(cols.capacity(), cap);
        arena.put_cols(cols);
    }

    #[test]
    fn take_leaves_an_empty_buffer() {
        let mut arena = ScratchArena::new();
        let mut cols = arena.take_cols();
        cols.push(1.0);
        arena.put_cols(cols);
        let first = arena.take_cols();
        assert_eq!(first, vec![1.0]);
        // While taken, the arena holds a fresh empty vec.
        assert_eq!(arena.cols_capacity(), 0);
        arena.put_cols(first);
    }
}
