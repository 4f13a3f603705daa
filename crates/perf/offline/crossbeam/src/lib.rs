//! Offline stand-in for `crossbeam` 0.8: `thread::scope` only, over
//! `std::thread::scope`. A panicking worker propagates out of `scope`
//! instead of coming back as `Err`, so the `Result` is always `Ok`.
#![forbid(unsafe_code)]

/// Scoped threads.
pub mod thread {
    /// A scope threads can borrow from; handed to the closure of [`scope`]
    /// and to every spawned closure.
    pub struct Scope<'scope, 'env: 'scope>(&'scope std::thread::Scope<'scope, 'env>);

    /// Handle to a thread spawned in a [`Scope`].
    pub struct ScopedJoinHandle<'scope, T>(std::thread::ScopedJoinHandle<'scope, T>);

    /// Runs `f` with a scope and joins every thread spawned in it.
    pub fn scope<'env, F, R>(f: F) -> std::thread::Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope(s))))
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a thread that may borrow from outside the scope.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.0;
            ScopedJoinHandle(inner.spawn(move || f(&Scope(inner))))
        }
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Waits for the thread and returns its result.
        pub fn join(self) -> std::thread::Result<T> {
            self.0.join()
        }
    }
}
