/**
 * @file
 * PrimitiveAssembly: stores shaded vertices and assembles them into
 * triangles (paper §2.2).  Supports the five OpenGL primitives
 * ATTILA implements: triangle lists, strips and fans, and quad lists
 * and strips (quads become two triangles).
 */

#ifndef ATTILA_GPU_PRIMITIVE_ASSEMBLY_HH
#define ATTILA_GPU_PRIMITIVE_ASSEMBLY_HH

#include <vector>

#include "gpu/gpu_config.hh"
#include "gpu/link.hh"
#include "sim/box.hh"

namespace attila::gpu
{

/** The Primitive Assembly box. */
class PrimitiveAssembly : public sim::Box
{
  public:
    PrimitiveAssembly(sim::SignalBinder& binder,
                      sim::StatisticManager& stats,
                      const GpuConfig& config);

    sim::Next update(Cycle cycle) override;
    bool empty() const override;

  private:
    /** The head of the input needs an output credit to move. */
    bool headNeedsCredit() const;
    /** Emit a triangle from stored vertices a, b, c. */
    bool emitTriangle(Cycle cycle, u32 a, u32 b, u32 c);
    void assemble(Cycle cycle);
    /** Emit a quad's second triangle and drop its vertices. */
    void emitSecondTriangle(Cycle cycle);

    LinkRx<VertexObj> _in;
    LinkTx _out;

    /** Vertices of the current primitive run. */
    std::vector<VertexObjPtr> _window;
    u32 _vertexCount = 0; ///< Vertices consumed in this batch.
    u32 _triangleCount = 0;
    RenderStatePtr _state;
    u32 _batchId = 0;
    Primitive _primitive = Primitive::Triangles;
    bool _pendingSecond = false; ///< Second triangle of a quad.

    sim::Statistic& _statTriangles;
    sim::Statistic& _statBusy;
};

} // namespace attila::gpu

#endif // ATTILA_GPU_PRIMITIVE_ASSEMBLY_HH
