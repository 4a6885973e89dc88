/**
 * @file
 * FunctionRef: a non-owning, trivially copyable reference to a
 * callable — the hot-path replacement for std::function members and
 * parameters (ImmediateSampler, QuadSampler, TileVisitor).
 *
 * A FunctionRef is two words: an opaque context pointer and a plain
 * function pointer that casts the context back and invokes it.
 * Calling through one costs a single indirect call — no heap
 * allocation, no virtual dispatch, no small-buffer copies.
 *
 * LIFETIME CONTRACT: a FunctionRef does NOT extend the life of the
 * callable it refers to.  Never bind one to a temporary whose full
 * expression ends before the last call (e.g. assigning a lambda
 * directly to a FunctionRef member).  Name the lambda first:
 *
 *     auto onTile = [&](s32 x, s32 y) { ... };
 *     traverse(tri, size, onTile);            // OK: outlives the call
 *
 *     member = [this](u32 i, f32 z) { ... };  // WRONG: dangles
 */

#ifndef ATTILA_SIM_FUNCTION_REF_HH
#define ATTILA_SIM_FUNCTION_REF_HH

#include <type_traits>
#include <utility>

namespace attila::sim
{

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)>
{
  public:
    constexpr FunctionRef() = default;
    constexpr FunctionRef(std::nullptr_t) {}

    /** Bind to any callable lvalue (or named const lambda).  The
     * referenced object must outlive every call — see the lifetime
     * contract above. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, FunctionRef>
                  && std::is_invocable_r_v<R, F&, Args...>>>
    constexpr FunctionRef(F&& f)
        : _ctx(const_cast<void*>(
              static_cast<const void*>(std::addressof(f)))),
          _call([](void* ctx, Args... args) -> R {
              return (*static_cast<std::remove_reference_t<F>*>(
                  ctx))(std::forward<Args>(args)...);
          })
    {}

    R
    operator()(Args... args) const
    {
        return _call(_ctx, std::forward<Args>(args)...);
    }

    constexpr explicit
    operator bool() const
    {
        return _call != nullptr;
    }

  private:
    void* _ctx = nullptr;
    R (*_call)(void*, Args...) = nullptr;
};

} // namespace attila::sim

#endif // ATTILA_SIM_FUNCTION_REF_HH
