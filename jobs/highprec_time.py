"""spark-submit entrypoint for Table F4 (Fig. 4: high-precision query time)."""
from repro.experiments.highprec import print_highprec
from repro.session import scale, session

if __name__ == "__main__":
    spark = session("repro-highprec")
    df = print_highprec(spark, scale=scale())
    df.to_csv("results_table_f4.csv", index=False)
    spark.stop()
